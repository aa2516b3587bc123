"""Small finite groups given by multiplication tables.

Elements are 0..n-1 with 0 the identity.  A table is one int64 array,
validated on construction (rows and columns are permutations, identity,
inverses, associativity) and kept read-only as `array`; `table` is its
tuple-of-tuples view, which `mul` reads.  Downstream code can trust any
GroupTable it receives.

Associativity is checked by Light's test (Clifford and Preston, The
Algebraic Theory of Semigroups, vol. 1) on a generating set S: the
elements s with (x s) z == x (s z) for all x and z are closed under
products, so it is enough that each s in S passes, at 2|S| n^2 gathers
instead of n^3 cells.  A table that fails, or whose S is too large for the
test to pay, gets the scan over all cells in blocks of rows, which finds
the lexicographically first failing (a, b, c).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import perms
from .core import table_generators


class InvalidGroupTable(ValueError):
    """The table is not a group multiplication table."""


# cells of (ab)c compared per block in the associativity check
_ASSOCIATIVITY_BLOCK_CELLS = 1 << 18


class GroupTable:
    """A finite group as a multiplication table with identity 0."""

    def __init__(self, table, labels=None, name=None):
        n = len(table)
        self.order = n
        self.labels = tuple(labels) if labels else None
        self.name = name
        if n == 0:
            raise InvalidGroupTable("a group needs at least its identity 0")
        if self.labels and len(self.labels) != n:
            raise InvalidGroupTable("label count does not match order")
        # each failure is reported at the first row, column, element or
        # (a, b, c) in lexicographic order
        full = next((i for i, row in enumerate(table) if len(row) != n), n)
        m = np.array(table[:full], dtype=np.int64).reshape(full, n)
        identity = np.arange(n)
        bad = (np.sort(m, axis=1) != identity).any(axis=1)
        if bad.any():
            raise InvalidGroupTable(f"row {int(np.argmax(bad))} is not a permutation")
        if full < n:
            raise InvalidGroupTable(f"row {full} has length {len(table[full])}")
        bad = (np.sort(m, axis=0) != identity[:, None]).any(axis=0)
        if bad.any():
            raise InvalidGroupTable(f"column {int(np.argmax(bad))} is not a permutation")
        if (m[0] != identity).any() or (m[:, 0] != identity).any():
            raise InvalidGroupTable("element 0 is not an identity")
        inv = m.argmin(axis=1)  # every row is a permutation, so its 0 sits at the inverse
        bad = m[inv, identity] != 0
        if bad.any():
            raise InvalidGroupTable(f"element {int(np.argmax(bad))} has no two-sided inverse")
        generators = table_generators(m, closed=(0,))
        if 2 * len(generators) >= n:  # Light's test would cost as much as the scan
            _scan_associativity(m)
        elif not all(_associates_through(m, s) for s in generators):
            _scan_associativity(m)
            raise RuntimeError("internal error: Light's test failed, "
                               "but the scan of all cells found no failure")
        m.setflags(write=False)
        self.array = m
        self.table = tuple(map(tuple, m.tolist()))
        self._inv = inv.tolist()

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def __repr__(self):
        return f"GroupTable({self.name or self.order})"


def _associates_through(m: np.ndarray, s: int) -> bool:
    """(x s) z == x (s z) for all x, z."""
    return bool(np.array_equal(m[m[:, s]], m[:, m[s]]))


def _scan_associativity(m: np.ndarray) -> None:
    """Raise on the lexicographically first (a, b, c) with (ab)c != a(bc)."""
    # a block of a rows at a time, in order of a, so the first mismatch
    # found is the lexicographically first (a, b, c)
    n = len(m)
    step = max(1, _ASSOCIATIVITY_BLOCK_CELLS // (n * n))
    for a0 in range(0, n, step):
        rows = m[a0 : a0 + step]
        bad = m[rows] != rows[:, m]
        if bad.any():
            a, b, c = (int(v) for v in np.argwhere(bad)[0])
            raise InvalidGroupTable(f"associativity fails at ({a0 + a}, {b}, {c})")


def cyclic(n: int) -> GroupTable:
    elements = np.arange(n)
    return GroupTable((elements[:, None] + elements) % n, name=f"cyclic{n}")


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Pairs (i, j) as elements i * b.order + j, multiplied componentwise."""
    m = b.order
    table = a.array[:, None, :, None] * m + b.array[None, :, None, :]
    name = f"{a.name or a.order}x{b.name or b.order}"
    return GroupTable(table.reshape(a.order * m, -1), name=name)


def klein4() -> GroupTable:
    g = direct_product(cyclic(2), cyclic(2))
    g.name = "klein4"
    return g


# the most elements a group table is built for from permutations
TABLE_LIMIT = 4096


def from_permutations(degree: int, gens, name=None, limit=TABLE_LIMIT) -> GroupTable:
    """Group table of the closure of `gens`, elements sorted lexicographically.

    The identity image tuple is lexicographically least, so it lands at
    index 0 as required.
    """
    group = perms.PermGroup(degree, gens)
    elems = group.elements(limit=limit)
    # row p composes p with every element q, whose images q[p[i]] are the
    # rows of images[:, p]; each row finds its index by its bytes
    images = np.array(elems, dtype=np.int32).reshape(len(elems), degree)
    index = {row.tobytes(): i for i, row in enumerate(images)}
    table = [[index[row.tobytes()] for row in images[:, p]] for p in images]
    labels = [perms.format_perm(p) for p in elems]
    return GroupTable(table, labels=labels, name=name)


def symmetric_group(n: int) -> GroupTable:
    if n < 1 or n > 5:
        raise ValueError("symmetric_group supports 1 <= n <= 5")
    gens = []
    if n >= 2:
        gens = [
            tuple([1, 0] + list(range(2, n))),
            tuple(list(range(1, n)) + [0]),
        ]
    return from_permutations(n, gens, name=f"sym{n}")


def dihedral_group(m: int) -> GroupTable:
    """Symmetries of a regular m-gon (order 2m) acting on the m vertices."""
    if m < 3:
        raise ValueError("dihedral_group needs m >= 3")
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((-i) % m for i in range(m))
    return from_permutations(m, [rot, ref], name=f"dihedral{m}")


def quaternion8() -> GroupTable:
    """The quaternion group {1, -1, i, -i, j, -j, k, -k}."""
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # sign, axis encoding: index = 2*axis + (sign < 0) with axes 1, i, j, k
    def mul(a, b):
        ax_a, neg_a = a // 2, a % 2
        ax_b, neg_b = b // 2, b % 2
        # quaternion axis products: table[(ax_a, ax_b)] = (axis, extra sign)
        prod = {
            (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
            (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
            (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
            (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
        }
        axis, extra = prod[(ax_a, ax_b)]
        sign = (neg_a + neg_b + extra) % 2
        return 2 * axis + sign
    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return GroupTable(table, labels=labels, name="quaternion8")


_NAMED = {
    "klein4": (4, klein4),
    "q8": (8, quaternion8),
    "s3": (6, lambda: symmetric_group(3)),
    "s4": (24, lambda: symmetric_group(4)),
}


def parse_group_name(name: str) -> tuple[int, Callable[[], GroupTable]]:
    """The order of a named group, read from its name before any table is
    built, and a function that builds the table.  Names: cyclic:n,
    dihedral:m, s3, s4, q8, klein4."""
    name = name.strip().lower()
    if name in _NAMED:
        return _NAMED[name]
    if ":" in name:
        kind, _, arg = name.partition(":")
        n = int(arg)
        if kind == "cyclic":
            if n < 1:
                raise InvalidGroupTable("a group needs at least its identity 0")
            return n, lambda: cyclic(n)
        if kind == "dihedral":
            if n < 3:
                raise InvalidGroupTable("dihedral:m needs m >= 3")
            return 2 * n, lambda: dihedral_group(n)
    raise ValueError(f"unknown group name {name!r}")


def named_group(name: str) -> GroupTable:
    """Look up a group by name: cyclic:n, dihedral:m, s3, s4, q8, klein4."""
    return parse_group_name(name)[1]()
