"""Small finite groups given by multiplication tables.

Elements are 0..n-1 with 0 the identity.  Tables are validated on
construction (associativity, identity, inverses), so downstream code can
trust any GroupTable it receives.
"""

from __future__ import annotations

from typing import Callable

from . import perms


class InvalidGroupTable(ValueError):
    """The table is not a group multiplication table."""


class GroupTable:
    """A finite group as a multiplication table with identity 0."""

    def __init__(self, table, labels=None, name=None):
        self.table = tuple(tuple(int(v) for v in row) for row in table)
        n = len(self.table)
        self.order = n
        self.labels = tuple(labels) if labels else None
        self.name = name
        if n == 0:
            raise InvalidGroupTable("a group needs at least its identity 0")
        if self.labels and len(self.labels) != n:
            raise InvalidGroupTable("label count does not match order")
        for i, row in enumerate(self.table):
            if len(row) != n:
                raise InvalidGroupTable(f"row {i} has length {len(row)}")
            if sorted(row) != list(range(n)):
                raise InvalidGroupTable(f"row {i} is not a permutation")
        for j in range(n):
            if sorted(self.table[i][j] for i in range(n)) != list(range(n)):
                raise InvalidGroupTable(f"column {j} is not a permutation")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise InvalidGroupTable("element 0 is not an identity")
        self._inv = [0] * n
        for i in range(n):
            inv = None
            for j in range(n):
                if self.table[i][j] == 0:
                    inv = j
                    break
            if inv is None or self.table[inv][i] != 0:
                raise InvalidGroupTable(f"element {i} has no two-sided inverse")
            self._inv[i] = inv
        for a in range(n):
            for b in range(n):
                ab = self.table[a][b]
                for c in range(n):
                    if self.table[ab][c] != self.table[a][self.table[b][c]]:
                        raise InvalidGroupTable(
                            f"associativity fails at ({a}, {b}, {c})"
                        )

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def center(self) -> frozenset[int]:
        return frozenset(
            z
            for z in range(self.order)
            if all(self.mul(z, k) == self.mul(k, z) for k in range(self.order))
        )

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(self.order)
        )

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def __repr__(self):
        return f"GroupTable({self.name or self.order})"


def cyclic(n: int) -> GroupTable:
    return GroupTable(
        [[(i + j) % n for j in range(n)] for i in range(n)], name=f"cyclic{n}"
    )


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    n, m = a.order, b.order
    table = [
        [
            a.mul(i // m, j // m) * m + b.mul(i % m, j % m)
            for j in range(n * m)
        ]
        for i in range(n * m)
    ]
    name = f"{a.name or a.order}x{b.name or b.order}"
    return GroupTable(table, name=name)


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
    index = {p: i for i, p in enumerate(elems)}
    table = [
        [index[perms.compose(p, q)] for q in elems]
        for p in elems
    ]
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
