"""Finite quandles as dense operation tables.

A quandle is a set with a binary operation x <| y satisfying
  (i)   idempotence:          x <| x == x
  (ii)  right translations    (- <| y) are bijections
  (iii) self-distributivity:  (x <| y) <| z == (x <| z) <| (y <| z)

Elements are 0..n-1.  A table is one int64 array, array[x, y] = x <| y,
checked exhaustively and kept read-only; `table` is its tuple view for
scalar lookups, equality, hashing and serialization, and whole-table
questions (orbits, morphism checks, complex assembly) read the array.
"""

from __future__ import annotations

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
        self.array = _check_axioms(table)
        self.array.setflags(write=False)
        self.table: tuple[tuple[int, ...], ...] = tuple(map(tuple, self.array.tolist()))
        self._type = None
        self._orbits = None
        self._inn = None

    @property
    def order(self) -> int:
        return len(self.table)

    def apply(self, x: int, y: int) -> int:
        """x <| y."""
        return self.table[x][y]

    def column(self, y: int) -> perms.Perm:
        """The right translation by y as a permutation image tuple."""
        return tuple(self.array[:, y].tolist())

    def inner_generators(self) -> list[perms.Perm]:
        """Distinct right-translation permutations, ordered by first column."""
        return list(dict.fromkeys(self.column(y) for y in range(self.order)))

    def inn(self) -> PermGroup:
        """The inner automorphism group, generated by right translations."""
        if self._inn is None:
            self._inn = PermGroup(self.order, self.inner_generators())
        return self._inn

    @property
    def type(self) -> int:
        """Least N >= 1 with x <|^N y == x for all x, y.

        Equals the lcm over y of the order of the right translation by y,
        hence always a finite positive integer for a finite table.
        """
        if self._type is None:
            self._type = lcm(*(perms.perm_order(c) for c in self.inner_generators()))
        return self._type

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbits of the inner group, i.e. connected components."""
        if self._orbits is None:
            # hook the labels of the ends of each edge x -- x <| y to each other
            # and jump pointers; labels fall inside an orbit to its least element
            n = self.order
            tail, head = np.repeat(np.arange(n), n), self.array.ravel()
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


# cells of (x <| y) <| z compared per block in the self-distributivity check
_AXIOM_BLOCK_CELLS = 1 << 18


def _check_axioms(table) -> np.ndarray:
    """Check the three axioms on the table as an int64 array and return it;
    the first malformed row or entry in row-major order is the witness."""
    n = len(table)
    full = next((i for i, row in enumerate(table) if len(row) != n), n)
    try:
        arr = np.array(table[:full], dtype=np.int64).reshape(full, n)
    except OverflowError:  # an entry beyond int64 is out of range all the same
        arr = np.array(table[:full], dtype=object).reshape(full, n)
    bad = np.argwhere((arr < 0) | (arr >= n))
    if len(bad):
        v = arr[tuple(bad[0])]
        raise AxiomViolation("ii", (int(bad[0][0]), int(v)), f"entry {v} outside 0..{n - 1}")
    if full < n:
        raise AxiomViolation("ii", full, f"row {full} has length {len(table[full])}, want {n}")
    if n == 0:
        raise AxiomViolation("i", None, "empty carrier")
    diag = arr.diagonal()
    if not np.array_equal(diag, np.arange(n)):
        x = int(np.argwhere(diag != np.arange(n))[0][0])
        raise AxiomViolation("i", x, f"{x} <| {x} == {arr[x, x]} != {x}")
    # entries are in range, so column y is a bijection iff it sorts to 0..n-1
    bad_cols = (np.sort(arr, axis=0) != np.arange(n)[:, None]).any(axis=0)
    if bad_cols.any():
        y = int(np.argmax(bad_cols))
        seen = {}
        for x, v in enumerate(arr[:, y].tolist()):
            if v in seen:
                raise AxiomViolation(
                    "ii",
                    (seen[v], x, y),
                    f"right translation by {y} maps both {seen[v]} and {x} to {v}",
                )
            seen[v] = x
    # (x <| y) <| z  vs  (x <| z) <| (y <| z), one block of x rows at a time so
    # memory stays O(n^2); blocks run in order of x, so the first mismatch
    # found is the lexicographically first (x, y, z)
    flat = arr.ravel()
    step = max(1, _AXIOM_BLOCK_CELLS // (n * n))
    for x0 in range(0, n, step):
        xs = arr[x0 : x0 + step]
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
    return arr


def validate(table, labels=None) -> FiniteQuandle:
    """Check all three axioms exhaustively and wrap the table."""
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
