"""Finite quandles as dense operation tables.

A quandle is a set with a binary operation x <| y satisfying
  (i)   idempotence:          x <| x == x
  (ii)  right translations    (- <| y) are bijections
  (iii) self-distributivity:  (x <| y) <| z == (x <| z) <| (y <| z)

Elements are 0..n-1.  A table is one int64 array, array[x, y] = x <| y,
checked and kept read-only; `table` is its tuple view, built on first
read, for scalar lookups, equality and hashing, and whole-table
questions (orbits, morphism checks, complex assembly, serialization)
read the array.  `table_array` reads quandle and group tables, an int64
array without a copy, and the checks walk it in blocks of
`perms.row_blocks`.  `load_table` parses the rows of a table file into
that array, the one `validate` reads.

Axioms (i) and (ii) are checked on every cell.  Axiom (iii) is checked on a
generating set S: given (i) and (ii), the elements z whose right translation
R_z is an automorphism form a subquandle, since R_{x<|y} = R_y R_x R_y^-1
(apply R_y^-1 first).  So (iii) holds as soon as R_s is an endomorphism for
every s in S; that reads column s alone, so it costs 2k n^2 gathers for the
k distinct translations of S instead of n^3 cells.  The scan of all n^3
cells runs only after a failure, to name the lexicographically first
witness; `check_on_generators` holds that policy for groups too.  The same
identity gives Inn(X) = <R_s : s in S> and makes every R_z conjugate to
some R_s, so the type is the lcm of the orders of the R_s.  As each R_s^-1
is a power of R_s, the subquandle generated by S is S <R_s : s in S>, one
walk (`_walk`) from S along the columns of S, and an orbit is strongly
connected under x -> x <| s.

S also fixes morphisms.  For a map f into a quandle, the elements s with
f R_s == R_{f(s)} f form a subquandle, as R_{y<|z} = R_z R_y R_z^-1 in
both quandles, so f is a homomorphism as soon as that holds on S:
`is_homomorphism` checks n |S| cells instead of n^2.  Every element
outside S is u <| s with s in S and u reached from S before it, so a
homomorphism is fixed by its images of S, and `find_isomorphism`
searches those images alone.
"""

from __future__ import annotations

import warnings
from collections import deque
from functools import cached_property
from math import lcm

import numpy as np

from . import perms
from .perms import PermGroup


class AxiomViolation(ValueError):
    """A table fails one of the three quandle axioms.

    axiom is 'i' (idempotence), 'ii' (right bijectivity) or
    'iii' (self-distributivity); witness pins down the failure.
    """

    def __init__(self, axiom: str, witness, message: str):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"axiom ({axiom}) fails: {message}")


class NotSurjective(ValueError):
    """A map that must be onto is not."""


class FiniteQuandle:
    """A validated finite quandle.  Use `validate` to construct from a table."""

    def __init__(self, table, labels=None):
        if labels is not None and not callable(labels):
            labels = tuple(labels)
            if len(labels) != len(table):
                raise ValueError("label count does not match order")
        self._labels = labels
        self.array, self._generators, self._translations = _check_axioms(table)
        self._type = None
        self._orbits = None
        self._inn = None

    @property
    def labels(self) -> tuple[str, ...] | None:
        """The element labels; labels given as a function are made on first read."""
        if callable(self._labels):
            self._labels = tuple(self._labels())
        return self._labels

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The tuple view of `array`, built on first read."""
        return tuple(map(tuple, self.array.tolist()))

    @property
    def order(self) -> int:
        return len(self.array)

    def apply(self, x: int, y: int) -> int:
        """x <| y."""
        return self.table[x][y]

    def column(self, y: int) -> perms.Perm:
        """The right translation by y as a permutation image tuple."""
        return tuple(self.array[:, y].tolist())

    def generating_set(self) -> tuple[int, ...]:
        """The quandle generating set S the axioms were checked on; see
        `table_generators` for how it is chosen."""
        return self._generators

    def inn(self) -> PermGroup:
        """The inner automorphism group, generated by the distinct right
        translations by the elements of S."""
        if self._inn is None:
            self._inn = PermGroup(self.order, self.array[:, self._translations].T)
        return self._inn

    @property
    def type(self) -> int:
        """Least N >= 1 with x <|^N y == x for all x, y.

        Equals the lcm over y of the order of the right translation by y,
        hence always a finite positive integer for a finite table.  Every
        R_y is conjugate to some R_s with s in S, so the lcm runs over the
        distinct translations of S.
        """
        if self._type is None:
            self._type = lcm(*(perms.perm_order(self.column(s)) for s in self._translations))
        return self._type

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits of the inner group, i.e. connected components."""
        if self._orbits is None:
            # an orbit is strongly connected under x -> x <| s (s in S), so
            # pulling the least label back along the edges and jumping
            # pointers lowers every label to its orbit's least element
            images, least = self.array[:, self._translations], np.arange(self.order)
            while True:
                lowered = np.minimum(least, least[images].min(axis=1))
                lowered = lowered[lowered]
                if np.array_equal(lowered, least):
                    break
                least = lowered
            groups: dict[int, list[int]] = {}
            for x, root in enumerate(least.tolist()):
                groups.setdefault(root, []).append(x)
            self._orbits = [tuple(v) for v in groups.values()]
        return self._orbits

    def is_connected(self) -> bool:
        return len(self.orbits()) == 1

    def profile(self) -> "QuandleProfile":
        return QuandleProfile(
            order=self.order,
            type=self.type,
            orbits=tuple(self.orbits()),
            connected=self.is_connected(),
            inn_order=self.inn().order,
        )

    def __eq__(self, other):
        return isinstance(other, FiniteQuandle) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteQuandle(order={self.order})"


class QuandleProfile:
    """Summary invariants of a quandle."""

    __slots__ = ("order", "type", "orbits", "connected", "inn_order")

    def __init__(self, order, type, orbits, connected, inn_order):
        self.order = order
        self.type = type
        self.orbits = orbits
        self.connected = connected
        self.inn_order = inn_order


def table_generators(array: np.ndarray, closed=()) -> tuple[int, ...]:
    """A deterministic generating set of the operation table `array`, whose
    columns are permutations.

    An element whose row is constant is fixed by every column, so it is
    reached only from itself: all such elements are generators, and come
    first.  The rest are chosen by the greedy "first fresh column": the next
    generator is the first element not yet reached whose column differs
    from that of every reached element, or the first unreached element when
    no column is fresh.  An element with a reached element's column acts
    like it, so it seldom enlarges the closure much; skipping such elements
    keeps S small where many elements share a column, as in the fibers of a
    covering.  In a group table every column is fresh, so the choice is the
    first unreached element.  `closed` lists elements known to form a
    closed subset whose columns are the identity, such as a group's
    identity.
    """
    return _generators_and_column_ids(array, closed)[0]


def _generators_and_column_ids(array: np.ndarray, closed=()) -> tuple[tuple[int, ...], np.ndarray]:
    """`table_generators` and, for each element, the first element with its
    column (`_column_ids` of all elements), which the choice is made from."""
    column_id = _column_ids(array, range(len(array)))
    elements = np.arange(len(array))
    reached = (array.min(axis=1) == elements) & (array.max(axis=1) == elements)
    reached[list(closed)] = False
    generators = np.flatnonzero(reached).tolist()
    reached[list(closed)] = True
    seen = np.zeros(len(array), dtype=bool)  # columns of the reached elements
    seen[column_id[reached]] = True
    while not reached.all():
        fresh = ~reached & ~seen[column_id]
        s = int(np.argmax(fresh if fresh.any() else ~reached))
        generators.append(s)
        rows = np.append(np.flatnonzero(reached), s)  # reached elements and s along column s
        for x, _, _ in _walk(array, reached, np.array(generators), rows, np.array([s])):
            seen[column_id[x]] = True
    return tuple(generators), column_id


def _column_ids(array: np.ndarray, ys) -> np.ndarray:
    """For each y in ys, the first of ys with y's column.

    Every column is taken to the first of ys with its hash, then compared
    with that column in one pass of `perms.row_blocks`, so no copy holds
    more than a block of columns.  Only where two different columns share
    a hash are that hash's columns told apart by their bytes.
    """
    ys = np.asarray(ys, dtype=np.int64)
    hashes = _column_hashes(array, ys)
    first = {}
    ids = np.array([first.setdefault(h, y) for h, y in zip(hashes.tolist(), ys.tolist())],
                   dtype=np.int64)
    repeated = np.flatnonzero(ids != ys)
    same = np.ones(len(repeated), dtype=bool)
    for _, rows in perms.row_blocks(array, max(1, len(repeated))):
        same &= (rows[:, ys[repeated]] == rows[:, ids[repeated]]).all(axis=0)
    for h in set(hashes[repeated[~same]].tolist()):
        seen = {}
        for i in np.flatnonzero(hashes == h).tolist():
            ids[i] = seen.setdefault(array[:, ys[i]].tobytes(), ys[i])
    return ids


def _column_hashes(array: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """For each y in ys, the sum of column y's entries times pseudo-random
    row weights, wrapping in int64; equal columns hash equal."""
    hashes = np.zeros(len(ys), dtype=np.int64)
    for r0, rows in perms.row_blocks(array, max(1, len(ys))):
        w = np.arange(r0 + 1, r0 + len(rows) + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        w ^= w >> np.uint64(29)
        w *= np.uint64(0xBF58476D1CE4E5B9)
        hashes += w.view(np.int64) @ rows[:, ys]
    return hashes


def _walk(array: np.ndarray, reached: np.ndarray, generators, rows, columns) -> list:
    """Mark in `reached`, a boolean mask, the products of `rows` by `columns`
    that it lacks, then what they reach along the columns of `generators`, a
    block of `perms.row_blocks` at a time.  Return the layers (x, u, s) of
    the marked x = u <| s; each u past the first layer was marked before."""
    layers, frontier = [], deque()
    while True:
        x = array[rows[:, None], columns].ravel()  # x[i * k + j] = rows[i] <| columns[j]
        fresh = (~reached[x]).nonzero()[0]
        new, first = np.unique(x[fresh], return_index=True)
        reached[new] = True
        i, j = np.divmod(fresh[first], len(columns))
        layers.append((new, rows[i], columns[j]))
        frontier.extend(block for _, block in perms.row_blocks(new, len(generators)))
        if not frontier:
            return layers
        rows, columns = frontier.popleft(), generators


def table_array(table) -> tuple[np.ndarray, int]:
    """The rows of `table` before the first of a wrong length, as a read-only
    int64 array (a view of a C-contiguous int64 one), and that row's index."""
    n = len(table)
    full = next((i for i, row in enumerate(table) if len(row) != n), n)
    try:
        arr = np.ascontiguousarray(table[:full], dtype=np.int64).reshape(full, n)
    except OverflowError:  # an entry beyond int64 is out of range all the same
        arr = np.array(table[:full], dtype=object).reshape(full, n)
    arr.setflags(write=False)
    return arr, full


def check_on_generators(arr: np.ndarray, generators, passes, scan, failed: str) -> None:
    """Check a law on `arr` through its generating set S, as the elements s
    with `passes(arr, s)` are closed; after an s fails, `scan(arr)` raises
    at the first failing cell."""
    if not all(passes(arr, s) for s in generators):
        scan(arr)
        raise RuntimeError(f"internal error: {failed}, "
                           "but the scan of all cells found no failure")


def _check_axioms(table) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
    """Check the three axioms on the table as an int64 array and return it
    with its generating set S and the first element of S of each distinct
    column; the first malformed row or entry in row-major order is the
    witness."""
    n = len(table)
    arr, full = table_array(table)
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        v = arr[tuple(bad)]
        raise AxiomViolation("ii", (int(bad[0]), int(v)), f"entry {v} outside 0..{n - 1}")
    if full < n:
        raise AxiomViolation("ii", full, f"row {full} has length {len(table[full])}, want {n}")
    if n == 0:
        raise AxiomViolation("i", None, "empty carrier")
    diag = arr.diagonal()
    if not np.array_equal(diag, np.arange(n)):
        x = int(np.argwhere(diag != np.arange(n))[0][0])
        raise AxiomViolation("i", x, f"{x} <| {x} == {arr[x, x]} != {x}")
    # entries are in range, so column y is a bijection iff it sorts to 0..n-1
    y = perms.first_non_permutation(arr.T)
    if y is not None:
        col, first = arr[:, y].tolist(), {}
        x = next(x for x, v in enumerate(col) if first.setdefault(v, x) != x)
        w, v = first[col[x]], col[x]
        raise AxiomViolation("ii", (w, x, y),
                             f"right translation by {y} maps both {w} and {x} to {v}")
    generators, column_id = _generators_and_column_ids(arr)
    # the law at s reads column s alone: keep the first generator of each column
    _, first = np.unique(column_id[list(generators)], return_index=True)
    translations = tuple(generators[i] for i in sorted(first.tolist()))
    check_on_generators(arr, translations, _is_endomorphism, _scan_distributivity,
                        "a right translation is no endomorphism")
    return arr, generators, translations


def _is_endomorphism(arr: np.ndarray, s: int) -> bool:
    """(x <| y) <| s == (x <| s) <| (y <| s) for all x, y."""
    col = arr[:, s]
    return all(np.array_equal(col[rows], arr[np.ix_(col[x0 : x0 + len(rows)], col)])
               for x0, rows in perms.row_blocks(arr, len(arr)))


def _scan_distributivity(arr: np.ndarray) -> None:
    """Raise on the lexicographically first (x, y, z) that fails (iii)."""
    # (x <| y) <| z  vs  (x <| z) <| (y <| z), one block of x rows at a time so
    # memory stays O(n^2); blocks run in order of x, so the first mismatch
    # found is the lexicographically first (x, y, z)
    n = len(arr)
    flat = arr.ravel()
    for x0, xs in perms.row_blocks(arr, n * n):
        left = arr[xs]  # left[i, y, z] = table[table[x0 + i][y]][z]
        right = flat.take(xs[:, None, :] * n + arr)
        bad = left != right
        if bad.any():
            i, y, z = (int(v) for v in np.argwhere(bad)[0])
            x = x0 + i
            raise AxiomViolation(
                "iii",
                (x, y, z),
                f"({x}<|{y})<|{z} == {int(left[i, y, z])} but "
                f"({x}<|{z})<|({y}<|{z}) == {int(right[i, y, z])}",
            )


def validate(table, labels=None) -> FiniteQuandle:
    """Check all three axioms and wrap the table.  `labels` is a sequence of
    one label per element, or a function returning one, called on first
    read of `.labels`."""
    return FiniteQuandle(table, labels=labels)


def load_table(text: str) -> FiniteQuandle:
    """Parse the interchange format: first line n, then n rows of n entries,
    each as int() reads it.

    '#' starts a comment; blank lines are ignored.  The rows become the one
    int64 array that `validate` reads, with no copy; see `_table_rows`.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ValueError("empty quandle file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the order, got {lines[0]!r}") from None
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    return validate(_table_rows(lines[1:], n))


def _table_rows(rows: list[str], n: int):
    """The rows of n entries as one int64 array, parsed by numpy's C parser.

    Where that parse fails or gives another width, the rows are read again
    with int(), which names the first bad row, accepts what int() reads and
    the C parser does not (`1_0`, non-ASCII digits) and keeps entries past
    int64 for validate to refuse.  Non-ASCII rows go to int() alone: the C
    parser asks the C library's isdigit() of each character, which is only
    defined on ASCII, and can read a letter as a digit.
    """
    if rows and all(map(str.isascii, rows)):
        try:
            with warnings.catch_warnings():
                # numpy releases that still read "3.0" as the integer 3 warn
                warnings.simplefilter("error", DeprecationWarning)
                arr = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, OverflowError, DeprecationWarning):
            pass
        else:
            if arr.shape == (len(rows), n):
                return arr
    table = []
    for line in rows:
        row = [int(t) for t in line.split()]
        if len(row) != n:
            raise ValueError(f"row {line!r} does not have {n} entries")
        table.append(row)
    return table


def dump_table(q: FiniteQuandle, comment: str | None = None) -> str:
    """Serialize a quandle in the interchange format, a row of the array at
    a time, so that no tuple view is built."""
    lines = []
    if comment:
        for piece in comment.splitlines():
            lines.append(f"# {piece}")
    lines.append(str(q.order))
    lines.extend(" ".join(map(str, row.tolist())) for row in q.array)
    return "\n".join(lines) + "\n"


def is_homomorphism(f, src: FiniteQuandle, dst: FiniteQuandle) -> bool:
    """True when f (a sequence indexed by src elements) respects <|."""
    f = tuple(f)
    if len(f) != src.order or any(not 0 <= v < dst.order for v in f):
        return False
    return bool(_respects(np.array([f], dtype=np.int64), src, dst)[0])


def _respects(maps: np.ndarray, src: FiniteQuandle, dst: FiniteQuandle) -> np.ndarray:
    """For each row f of `maps`, whether f(x <| s) == f(x) <| f(s) for every
    x and every s in S of src, hence, by the lemma in the module docstring,
    for every s."""
    gens = list(src.generating_set())
    left = maps[:, src.array[:, gens]]
    return (left == dst.array[maps[:, :, None], maps[:, None, gens]]).all(axis=(1, 2))


def is_covering(f, src: FiniteQuandle, dst: FiniteQuandle) -> bool:
    """Covering check: surjective homomorphism whose fibers act identically.

    Raises NotSurjective when f misses an element of dst; returns False
    when f is not a homomorphism or translations differ within a fiber.
    """
    f = tuple(f)
    if not is_homomorphism(f, src, dst):
        return False
    if set(f) != set(range(dst.order)):
        raise NotSurjective(f"image has {len(set(f))} of {dst.order} elements")
    # column x must equal the column of the first element of x's fiber
    f = np.array(f)
    _, first = np.unique(f, return_index=True)
    return bool(np.array_equal(src.array[:, first[f]], src.array))


# bounds candidates x n x |S|, the cells `find_isomorphism` may gather
ISOMORPHISM_CELLS = 1 << 26


def find_isomorphism(a: FiniteQuandle, b: FiniteQuandle):
    """An isomorphism a -> b of connected quandles as an image tuple, or None.

    None when the orders, types or connectedness differ; ValueError when
    both are disconnected, or when the n^(|S|-1) candidates times the
    n |S| cells each would check pass ISOMORPHISM_CELLS, S being a's
    generating set.  A breadth-first walk from S writes every other element
    as u <| s, u reached earlier, so f(u <| s) = f(u) <| f(s) extends a
    candidate by one gather per layer.  Inn(b) is transitive, so the first
    generator goes to 0 and the others run over all n^(|S|-1) images, a
    block of candidates at a time; the first bijection that respects <|
    is returned.
    """
    if (a.order, a.type, a.is_connected()) != (b.order, b.type, b.is_connected()):
        return None
    if not a.is_connected():
        raise ValueError("isomorphism search needs connected quandles")
    n, gens = a.order, np.array(a.generating_set())
    k = len(gens)
    cells = n ** (k - 1) * n * k
    if cells > ISOMORPHISM_CELLS:
        raise ValueError(f"isomorphism search needs {cells} cells, cap is {ISOMORPHISM_CELLS}")
    reached = np.zeros(n, dtype=bool)
    reached[gens] = True
    steps = _walk(a.array, reached, gens, gens, gens)
    digits = n ** np.arange(k - 1, -1, -1)  # the first generator's digit is 0
    for _, block in perms.row_blocks(range(n ** (k - 1)), n * k):
        maps = np.empty((len(block), n), dtype=np.int64)
        maps[:, gens] = np.arange(block.start, block.stop)[:, None] // digits % n
        for x, u, s in steps:
            maps[:, x] = b.array[maps[:, u], maps[:, s]]
        for f in maps[_respects(maps, a, b)]:
            if perms.first_non_permutation(f[None]) is None:
                return tuple(f.tolist())
    return None
