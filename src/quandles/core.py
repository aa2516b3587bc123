"""Finite quandles as dense operation tables.

A quandle is a set with a binary operation x <| y satisfying
  (i)   idempotence:          x <| x == x
  (ii)  right translations    (- <| y) are bijections
  (iii) self-distributivity:  (x <| y) <| z == (x <| z) <| (y <| z)

Elements are 0..n-1.  A table is one int64 array, array[x, y] = x <| y,
checked and kept read-only; `table` is its tuple view, built on first
read, for scalar lookups, equality, hashing and serialization, and
whole-table questions (orbits, morphism checks, complex assembly) read
the array.  `table_array` reads quandle and group tables, an int64 array
without a copy, and the checks walk it in blocks of `perms.row_blocks`.

Axioms (i) and (ii) are checked on every cell.  Axiom (iii) is checked on a
generating set S: given (i) and (ii), the elements z whose right translation
R_z is an automorphism form a subquandle, since R_{x<|y} = R_y R_x R_y^-1
(apply R_y^-1 first).  So (iii) holds as soon as R_s is an endomorphism for
every s in S, which costs 2|S| n^2 gathers instead of n^3 cells.  The same
identity gives Inn(X) = <R_s : s in S>, and makes every R_z conjugate to
some R_s, so the type is the lcm of the orders of the R_s, and the orbits
are the components of the graph with the edges x -- x <| s.  A table that
fails the reduced check, or whose S is too large for it to pay, gets the
scan over all n^3 cells, which finds the lexicographically first witness;
`check_on_generators` holds that policy for groups too.
"""

from __future__ import annotations

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
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != len(table):
            raise ValueError("label count does not match order")
        self.array, self._generators = _check_axioms(table)
        self._type = None
        self._orbits = None
        self._inn = None

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
        """The inner automorphism group, generated by the right translations
        by the elements of S."""
        if self._inn is None:
            self._inn = PermGroup(self.order, self.array[:, self._generators].T)
        return self._inn

    @property
    def type(self) -> int:
        """Least N >= 1 with x <|^N y == x for all x, y.

        Equals the lcm over y of the order of the right translation by y,
        hence always a finite positive integer for a finite table.  Every
        R_y is conjugate to some R_s with s in S, so the lcm runs over S.
        """
        if self._type is None:
            columns = dict.fromkeys(self.column(s) for s in self._generators)
            self._type = lcm(*map(perms.perm_order, columns))
        return self._type

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits of the inner group, i.e. connected components."""
        if self._orbits is None:
            # hook the labels of the ends of each edge x -- x <| s (s in S) to
            # each other and jump pointers; labels fall to an orbit's least element
            n, gens = self.order, self._generators
            tail, head = np.repeat(np.arange(n), len(gens)), self.array[:, gens].ravel()
            least = np.arange(n)
            while True:
                hooked = least.copy()
                np.minimum.at(hooked, least[tail], least[head])
                np.minimum.at(hooked, least[head], least[tail])
                while not np.array_equal(hooked[hooked], hooked):
                    hooked = hooked[hooked]
                if np.array_equal(hooked, least):
                    break
                least = hooked
            groups: dict[int, list[int]] = {}
            for x, root in enumerate(least.tolist()):
                groups.setdefault(root, []).append(x)
            self._orbits = [tuple(v) for v in groups.values()]
        return self._orbits

    def is_connected(self) -> bool:
        return len(self.orbits()) == 1

    def orbit_of(self, x: int) -> tuple[int, ...]:
        for orb in self.orbits():
            if x in orb:
                return orb
        raise IndexError(x)

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
    closed subset, such as a group's identity.
    """
    # a column's id is the first column equal to it, found by open addressing
    # on the hash of its bytes, so no n^2 bytes are kept
    column_id, first = np.empty(len(array), dtype=np.intp), {}
    for y, key in enumerate(map(np.ndarray.tobytes, array.T)):
        h = hash(key)
        while h in first and array[:, first[h]].tobytes() != key:
            h += 1
        column_id[y] = first.setdefault(h, y)
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
        seen[column_id[_extend_closure(array, reached, s)]] = True
    return tuple(generators)


def _extend_closure(array: np.ndarray, reached: np.ndarray, s: int) -> np.ndarray:
    """Mark in `reached`, a closed subset as a boolean mask, its closure with s
    under the operation of `array`, and return the newly marked elements.

    Each element is in the frontier once, and is then multiplied on both
    sides by every element reached so far, so every pair is covered; the
    frontier is taken in blocks of rows so memory stays O(n^2)."""
    frontier = np.array([s])
    reached[s] = True
    added = [frontier]
    while len(frontier):
        old = np.flatnonzero(reached)
        new = np.zeros(len(array), dtype=bool)
        for _, block in perms.row_blocks(frontier, len(old)):
            new[array[np.ix_(block, old)]] = True
            new[array[np.ix_(old, block)]] = True
        frontier = np.flatnonzero(new & ~reached)
        reached[frontier] = True
        added.append(frontier)
    return np.concatenate(added)


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
    with `passes(arr, s)` are closed; `scan(arr)` raises at the first failing
    cell, and runs when an s fails, or alone when 2|S| >= n."""
    if 2 * len(generators) >= len(arr):
        scan(arr)
    elif not all(passes(arr, s) for s in generators):
        scan(arr)
        raise RuntimeError(f"internal error: {failed}, "
                           "but the scan of all cells found no failure")


def _check_axioms(table) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check the three axioms on the table as an int64 array and return it
    with its generating set; the first malformed row or entry in row-major
    order is the witness."""
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
    generators = table_generators(arr)
    check_on_generators(arr, generators, _is_endomorphism, _scan_distributivity,
                        "a right translation is no endomorphism")
    return arr, generators


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
    """Check all three axioms and wrap the table."""
    return FiniteQuandle(table, labels=labels)


def load_table(text: str) -> FiniteQuandle:
    """Parse the interchange format: first line n, then n rows of n entries.

    '#' starts a comment; blank lines are ignored.
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
    table = []
    for line in lines[1:]:
        row = [int(t) for t in line.split()]
        if len(row) != n:
            raise ValueError(f"row {line!r} does not have {n} entries")
        table.append(row)
    return validate(table)


def dump_table(q: FiniteQuandle, comment: str | None = None) -> str:
    """Serialize a quandle in the interchange format."""
    lines = []
    if comment:
        for piece in comment.splitlines():
            lines.append(f"# {piece}")
    lines.append(str(q.order))
    lines.extend(" ".join(str(v) for v in row) for row in q.table)
    return "\n".join(lines) + "\n"


def is_homomorphism(f, src: FiniteQuandle, dst: FiniteQuandle) -> bool:
    """True when f (a sequence indexed by src elements) respects <|."""
    f = tuple(f)
    if len(f) != src.order or any(not 0 <= v < dst.order for v in f):
        return False
    f = np.array(f, dtype=np.int64)
    return bool(np.array_equal(f[src.array], dst.array[f[:, None], f[None, :]]))


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


def _element_signature(q: FiniteQuandle, x: int):
    return (perms.cycle_type(q.column(x)), len(q.orbit_of(x)))


def find_isomorphism(a: FiniteQuandle, b: FiniteQuandle, max_order: int = 12):
    """Search for an isomorphism a -> b; returns the image tuple or None.

    Backtracking with per-element signature pruning and constraint
    propagation; intended for small orders (brute force up to ~12).
    """
    if a.order != b.order:
        return None
    if a.order > max_order:
        raise ValueError(f"order {a.order} exceeds isomorphism search bound {max_order}")
    if a.type != b.type:
        return None
    if sorted(len(o) for o in a.orbits()) != sorted(len(o) for o in b.orbits()):
        return None
    n = a.order
    sig_a = [_element_signature(a, x) for x in range(n)]
    sig_b = [_element_signature(b, x) for x in range(n)]
    candidates = [
        [y for y in range(n) if sig_b[y] == sig_a[x]] for x in range(n)
    ]
    if any(not c for c in candidates):
        return None
    mapping = [-1] * n
    used = [False] * n

    def consistent(x, y):
        # check every pair involving x against already-mapped elements
        for t in range(n):
            if mapping[t] == -1 and t != x:
                continue
            mt = y if t == x else mapping[t]
            u = a.apply(x, t)
            if mapping[u] != -1 or u == x:
                mu = y if u == x else mapping[u]
                if b.apply(y, mt) != mu:
                    return False
            u = a.apply(t, x)
            if mapping[u] != -1 or u == x:
                mu = y if u == x else mapping[u]
                if b.apply(mt, y) != mu:
                    return False
        return True

    def backtrack(x):
        if x == n:
            return True
        for y in candidates[x]:
            if not used[y] and consistent(x, y):
                mapping[x] = y
                used[y] = True
                if backtrack(x + 1):
                    return True
                mapping[x] = -1
                used[y] = False
        return False

    if backtrack(0):
        return tuple(mapping)
    return None


def is_isomorphic(a: FiniteQuandle, b: FiniteQuandle, max_order: int = 12) -> bool:
    return find_isomorphism(a, b, max_order=max_order) is not None
