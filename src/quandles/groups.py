"""Small finite groups given by multiplication tables.

Elements are 0..n-1 with 0 the identity.  A table is one int64 array,
read by `core.table_array` (an int64 array without a copy), validated on
construction (rows and columns are permutations, identity, inverses,
associativity) in blocks of rows and kept read-only as `array`; `table` is
its tuple-of-tuples view, built on first read, which `mul` reads.
Downstream code can trust any GroupTable it receives.

Associativity is checked by Light's test (Clifford and Preston, The
Algebraic Theory of Semigroups, vol. 1) on a generating set S: the
elements s with (x s) z == x (s z) for all x and z are closed under
products, so it is enough that each s in S passes, at 2|S| n^2 gathers
instead of n^3 cells.  A table that fails gets the scan over all cells in
blocks of rows, which finds the lexicographically first failing (a, b, c):
`core.check_on_generators`.  S is picked by `core.table_generators`, whose
walk from the identity by right multiplication by S reaches the subgroup
<S>, as each s^-1 is a power of s.

`parse_group_name` is the one resolver of group names and Coxeter labels;
its docstring gives the grammar.  It reads the order from the name, checks
it against TABLE_LIMIT, and builds permutation groups by `from_permutations`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from . import perms
from .core import check_on_generators, table_array, table_generators


class InvalidGroupTable(ValueError):
    """The table is not a group multiplication table."""


class GroupTable:
    """A finite group as a multiplication table with identity 0."""

    def __init__(self, table, labels=None, name=None):
        n = len(table)
        if not callable(labels):
            labels = tuple(labels) if labels else None
        self._labels = labels
        self.name = name
        if n == 0:
            raise InvalidGroupTable("a group needs at least its identity 0")
        if labels and not callable(labels) and len(labels) != n:
            raise InvalidGroupTable("label count does not match order")
        # each failure is reported at the first row, column, element or
        # (a, b, c) in lexicographic order
        m, full = table_array(table)
        row = perms.first_non_permutation(m)
        if row is not None:
            raise InvalidGroupTable(f"row {row} is not a permutation")
        if full < n:
            raise InvalidGroupTable(f"row {full} has length {len(table[full])}")
        column = perms.first_non_permutation(m.T)
        if column is not None:
            raise InvalidGroupTable(f"column {column} is not a permutation")
        identity = np.arange(n)
        if (m[0] != identity).any() or (m[:, 0] != identity).any():
            raise InvalidGroupTable("element 0 is not an identity")
        inv = m.argmin(axis=1)  # every row is a permutation, so its 0 sits at the inverse
        bad = m[inv, identity] != 0
        if bad.any():
            raise InvalidGroupTable(f"element {int(np.argmax(bad))} has no two-sided inverse")
        check_on_generators(m, table_generators(m, closed=(0,)), _associates_through,
                            _scan_associativity, "Light's test failed")
        self.array = m
        self._inv = inv.tolist()

    @property
    def labels(self) -> tuple[str, ...] | None:
        """The element labels; labels given as a function are made on first read."""
        if callable(self._labels):
            self._labels = tuple(self._labels())
        return self._labels

    @property
    def order(self) -> int:
        return len(self.array)

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The tuple view of `array`, built on first read; `mul` reads it."""
        return tuple(map(tuple, self.array.tolist()))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def __repr__(self):
        return f"GroupTable({self.name or self.order})"


def _associates_through(m: np.ndarray, s: int) -> bool:
    """(x s) z == x (s z) for all x, z."""
    xs, sz = m[:, s], m[s]
    return all(np.array_equal(m[xs[x0 : x0 + len(rows)]], rows[:, sz])
               for x0, rows in perms.row_blocks(m, len(m)))


def _scan_associativity(m: np.ndarray) -> None:
    """Raise on the lexicographically first (a, b, c) with (ab)c != a(bc)."""
    # a block of a rows at a time, in order of a, so the first mismatch
    # found is the lexicographically first (a, b, c)
    for a0, rows in perms.row_blocks(m, len(m) ** 2):
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
}

# the most elements of a named group, or of the reflection quandle of a
# Coxeter label, that a table is built for
TABLE_LIMIT = 4096


def _within_limit(name: str, what: str, factors) -> int:
    """The product of `factors`, the size of the `what` that `name` names,
    refused as soon as it passes TABLE_LIMIT."""
    size = 1
    for f in factors:
        size *= f
        if size > TABLE_LIMIT:
            raise ValueError(f"{name} names {what} of more than {TABLE_LIMIT} elements")
    return size


def from_permutations(degree: int, gens, name=None) -> GroupTable:
    """Group table of the closure of `gens`, elements sorted lexicographically
    as image tuples, tabulated by `perms.tabulate` on a base of the group.

    The identity image tuple is lexicographically least, so it lands at
    index 0 as required.
    """
    group = perms.PermGroup(degree, gens)
    elements, table = perms.tabulate(group.elements(limit=TABLE_LIMIT), perms.base_points(group))
    return GroupTable(table, labels=perms.perm_labels(elements), name=name)


def _coxeter_label(label: str) -> tuple[str, int] | None:
    """('A', n) for A<n> (n >= 1) and ('I2', m) for I2(<m>) (m >= 3), with
    B2 = I2(4) and G2 = I2(6); None for a name that is no Coxeter label."""
    kind = label.strip().upper()
    kind = {"B2": "I2(4)", "G2": "I2(6)"}.get(kind, kind)
    if kind.startswith("A") and kind[1:].isdigit():
        if int(kind[1:]) < 1:
            raise ValueError("need A1 or higher")
        return "A", int(kind[1:])
    if kind.startswith("I2(") and kind.endswith(")") and kind[3:-1].isdigit():
        if int(kind[3:-1]) < 3:
            raise ValueError("need I2(3) or higher")
        return "I2", int(kind[3:-1])
    return None


def coxeter_generators(label: str) -> tuple[str, int, np.ndarray]:
    """The reflection group a Coxeter label names: (name, degree, simple
    reflections as the int32 rows of their images).

    A<n> is the symmetric group S_{n+1} with the adjacent transpositions;
    I2(m) is the dihedral group of the m-gon with two adjacent reflections,
    i -> -i and i -> 1 - i mod m.  A label with more than TABLE_LIMIT
    reflections, n(n+1)/2 for A<n> and m for I2(m), is refused before any
    permutation is built.
    """
    parsed = _coxeter_label(label)
    if parsed is None:
        raise ValueError(f"unknown Coxeter label {label.strip().upper()!r}")
    series, rank = parsed
    reflections = rank * (rank + 1) // 2 if series == "A" else rank
    _within_limit(label.strip(), "a reflection quandle", (reflections,))
    i = np.arange(rank, dtype=np.int32)
    if series == "A":
        gens = np.tile(np.arange(rank + 1, dtype=np.int32), (rank, 1))
        gens[i, i], gens[i, i + 1] = i + 1, i
        return f"sym{rank + 1}", rank + 1, gens
    return f"dihedral{rank}", rank, np.array([-i % rank, (1 - i) % rank])


def parse_group_name(name: str) -> tuple[int, Callable[[], GroupTable]]:
    """The order of a named group, read from its name before anything is
    built, and a function that builds its table.

    Names, in any case: cyclic:n (n >= 1), dihedral:m (order 2m, m >= 3),
    s3, s4, q8, klein4, and the Coxeter labels A<n> (the symmetric group
    S_{n+1}), I2(m) (the dihedral group of order 2m), B2 = I2(4) and
    G2 = I2(6).  s3, s4 and dihedral:m are A2, A3 and I2(m), built from
    the permutations of `coxeter_generators`.  A name whose order passes
    TABLE_LIMIT is refused here.
    """
    name = name.strip()
    key = name.lower()
    if key in _NAMED:
        return _NAMED[key]
    kind, colon, arg = key.partition(":")
    if kind == "cyclic" and colon:
        n = int(arg)
        if n < 1:
            raise InvalidGroupTable("a group needs at least its identity 0")
        _within_limit(name, "a group", (n,))
        return n, lambda: cyclic(n)
    if kind == "dihedral" and colon:
        if int(arg) < 3:
            raise InvalidGroupTable("dihedral:m needs m >= 3")
        label = f"I2({int(arg)})"
    else:
        label = {"s3": "A2", "s4": "A3"}.get(key, key)
    parsed = _coxeter_label(label)
    if parsed is None:
        raise ValueError(f"unknown group name {key!r}")
    series, rank = parsed
    order = _within_limit(name, "a group", range(2, rank + 2) if series == "A" else (2, rank))

    def build() -> GroupTable:
        group_name, degree, gens = coxeter_generators(label)
        return from_permutations(degree, gens, name=group_name)

    return order, build


def named_group(name: str) -> GroupTable:
    """Look up a group by name; see parse_group_name."""
    return parse_group_name(name)[1]()
