"""Constructors for the standard quandle families.

Every constructor returns a validated FiniteQuandle with elements 0..n-1
in a deterministic enumeration order, so tables are reproducible across
runs and platforms; each passes its table to `validate` as one int array.
Alexander quandles are built from an AlexanderModuleSpec, the one place
that encodes module elements: it tabulates their coordinates and the
action of T once, and the quandle table, type, connectivity test and the
adjoint-group model all read those arrays.  The vector families
(symplectic, spherical) are built on the arrays of `fields.FiniteField`:
the form and the image of every pair are gathers from its add/mul/neg
tables.
"""

from __future__ import annotations

from math import prod

import numpy as np

from . import perms
from .core import FiniteQuandle, validate
from .fields import FiniteField, codes, digit_rows
from .groups import GroupTable, coxeter_generators
from .perms import PermGroup


class NonInvertibleT(ValueError):
    """The coefficient does not act invertibly on the module."""


class EvenCharacteristic(ValueError):
    """Spherical quandles need odd characteristic."""


class SeedNotInvolution(ValueError):
    """Reflection quandle seeds must be involutions."""


class AlexanderModuleSpec:
    """A finite module Z/d1 + ... + Z/dk with an invertible endomorphism T.

    torsion_orders lists (d1, ..., dk); t_matrix is a k x k integer matrix
    acting on coordinate columns.  Elements are enumerated mixed-radix over
    torsion_orders with the first coordinate least significant, so the
    element of coordinates (x1, ..., xk) has index x1 + d1*(x2 + d2*(...)).

    The constructor tabulates, once, the (size, k) int64 arrays coord_rows
    (row i holds the coordinates of element i) and t_rows (the coordinates
    of T applied to it), and t_perm, T as a permutation of element indices.
    Invertibility, t_order, is_connected, `alexander` and the adjoint-group
    model all read these arrays.  The tuple methods (coords, index, add,
    t_apply, ...) do the same arithmetic one element at a time.
    """

    def __init__(self, torsion_orders, t_matrix):
        self.torsion_orders = tuple(int(d) for d in torsion_orders)
        if not self.torsion_orders or any(d < 1 for d in self.torsion_orders):
            raise ValueError("torsion orders must be positive")
        k = len(self.torsion_orders)
        rows = tuple(tuple(int(v) for v in row) for row in t_matrix)
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ValueError(f"T must be {k}x{k}")
        # T descends to the quotient module iff d_i * T[j][i] == 0 mod d_j
        for i, di in enumerate(self.torsion_orders):
            for j, dj in enumerate(self.torsion_orders):
                if (di * rows[j][i]) % dj != 0:
                    raise ValueError(
                        f"T entry ({j},{i}) does not respect the torsion orders"
                    )
        # normalize entries of row j mod d_j
        self.t_matrix = tuple(
            tuple(rows[j][i] % self.torsion_orders[j] for i in range(k))
            for j in range(k)
        )
        self.size = prod(self.torsion_orders)
        self.coord_rows = digit_rows(self.size, self.torsion_orders)
        self.t_rows = self.coord_rows @ np.array(self.t_matrix, dtype=np.int64).T % self.torsion_orders
        self.t_perm = codes(self.t_rows, self.torsion_orders)
        if perms.first_non_permutation(self.t_perm[None]) is not None:
            raise NonInvertibleT(f"T = {self.t_matrix} is not invertible on the module")

    @classmethod
    def scalar(cls, torsion_orders, t: int) -> "AlexanderModuleSpec":
        orders = tuple(int(d) for d in torsion_orders)
        k = len(orders)
        return cls(orders, [[t if i == j else 0 for j in range(k)] for i in range(k)])

    # -- element plumbing ---------------------------------------------------

    def coords(self, index: int) -> tuple[int, ...]:
        out = []
        for d in self.torsion_orders:
            out.append(index % d)
            index //= d
        return tuple(out)

    def index(self, coords) -> int:
        value = 0
        for x, d in zip(reversed(tuple(coords)), reversed(self.torsion_orders)):
            value = value * d + (x % d)
        return value

    def elements(self):
        return range(self.size)

    def add(self, a, b) -> tuple[int, ...]:
        return tuple(
            (x + y) % d for x, y, d in zip(a, b, self.torsion_orders)
        )

    def sub(self, a, b) -> tuple[int, ...]:
        return tuple(
            (x - y) % d for x, y, d in zip(a, b, self.torsion_orders)
        )

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.torsion_orders))

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.torsion_orders)

    def t_apply(self, v) -> tuple[int, ...]:
        return tuple(
            sum(self.t_matrix[j][i] * v[i] for i in range(len(v))) % dj
            for j, dj in enumerate(self.torsion_orders)
        )

    def one_minus_t(self, v) -> tuple[int, ...]:
        return self.sub(v, self.t_apply(v))

    def t_order(self) -> int:
        """Multiplicative order of T on the module (the quandle type)."""
        return perms.perm_order(self.t_perm.tolist())

    def is_connected(self) -> bool:
        """Connected iff (1 - T) is onto the module, i.e. one-to-one."""
        images = codes(self.coord_rows - self.t_rows, self.torsion_orders)
        return perms.first_non_permutation(images[None]) is None

    def label(self) -> str:
        orders = ",".join(str(d) for d in self.torsion_orders)
        mat = ";".join(
            ",".join(str(v) for v in row) for row in self.t_matrix
        )
        return f"alexander orders={orders} t={mat}"

    def __eq__(self, other):
        return (
            isinstance(other, AlexanderModuleSpec)
            and self.torsion_orders == other.torsion_orders
            and self.t_matrix == other.t_matrix
        )

    def __hash__(self):
        return hash((self.torsion_orders, self.t_matrix))

    def __repr__(self):
        return f"AlexanderModuleSpec({self.torsion_orders}, {self.t_matrix})"


def alexander(spec: AlexanderModuleSpec) -> FiniteQuandle:
    """The Alexander quandle x <| y = Tx + (1 - T)y on the module.

    Row x of the table is the codes of Tx + (1 - T)y over all y, read off
    the spec's coordinate arrays in blocks of rows (perms.row_blocks), so
    the only n x n array is the table.  The labels are made on first read.
    """
    one_minus_t = spec.coord_rows - spec.t_rows
    table = np.empty((spec.size, spec.size), dtype=np.int64)
    # a row of the block stands for its n·k digits three times over: the
    # digit block and the two arrays codes makes from it
    for x0, tx in perms.row_blocks(spec.t_rows, 3 * one_minus_t.size):
        table[x0 : x0 + len(tx)] = codes(tx[:, None] + one_minus_t, spec.torsion_orders)
    return validate(table, labels=lambda: (
        "(" + ",".join(str(v) for v in c) + ")" for c in spec.coord_rows.tolist()))


def dihedral(n: int) -> FiniteQuandle:
    """The dihedral quandle R_n: x <| y = 2y - x mod n."""
    if n < 1:
        raise ValueError("need n >= 1")
    elements = np.arange(n)
    return validate((2 * elements - elements[:, None]) % n)


def trivial(n: int) -> FiniteQuandle:
    """The trivial quandle: x <| y = x."""
    if n < 1:
        raise ValueError("need n >= 1")
    return validate(np.broadcast_to(np.arange(n)[:, None], (n, n)))


def _field_vectors(F: FiniteField, length: int) -> np.ndarray:
    """Every vector of F_q^length, one row each, in itertools.product order:
    row i is the vector whose base-q digits, first coordinate most
    significant, spell i."""
    return digit_rows(F.q**length, (F.q,) * length)[:, ::-1]


def _dot(F: FiniteField, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k x[..., k] * y[..., k] in F, broadcast over the other axes."""
    s = 0
    for k in range(x.shape[-1]):
        s = F.add_table[s, F.mul_table[x[..., k], y[..., k]]]
    return s


def _vector_quandle(F: FiniteField, vecs, keep, form, x_term) -> FiniteQuandle:
    """The quandle on the vector rows vecs, at product-order indices keep,
    with x <| y = form[x, y] y + x_term[x].

    Every image coordinate is a gather from the field tables; the image's
    product-order index maps back to its element through one array.
    """
    image = 0
    for k in range(vecs.shape[1]):
        image = image * F.q + F.add_table[F.mul_table[form, vecs[:, k]], x_term[:, k, None]]
    index = np.full(F.q ** vecs.shape[1], -1, dtype=np.int64)
    index[keep] = np.arange(len(keep))
    labels = ["(" + ",".join(str(v) for v in vec) + ")" for vec in vecs.tolist()]
    return validate(index[image], labels=labels)


def symplectic(g: int, field) -> FiniteQuandle:
    """Nonzero vectors of F_q^{2g} with x <| y = <x, y> y + x.

    <x, y> is the standard symplectic form sum(x_{2i} y_{2i+1} - x_{2i+1} y_{2i}).
    """
    if g < 1:
        raise ValueError("need g >= 1")
    F = field if isinstance(field, FiniteField) else FiniteField.of(field)
    vectors = _field_vectors(F, 2 * g)
    keep = np.arange(1, len(vectors))  # all but the zero vector
    x = vectors[keep]
    # <x, y> = x . Jy with (Jy)_{2i} = y_{2i+1} and (Jy)_{2i+1} = -y_{2i}
    jy = x[:, np.arange(2 * g) ^ 1]
    jy[:, 1::2] = F.neg_table[jy[:, 1::2]]
    return _vector_quandle(F, x, keep, _dot(F, x[:, None], jy[None, :]), x)


def spherical(n: int, field) -> FiniteQuandle:
    """Unit vectors of F_q^{n+1} (odd q) with x <| y = 2<x, y> y - x.

    <., .> is the standard dot product; unit means <x, x> = 1.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    F = field if isinstance(field, FiniteField) else FiniteField.of(field)
    if F.p == 2:
        raise EvenCharacteristic("spherical quandles need odd characteristic")
    vectors = _field_vectors(F, n + 1)
    keep = np.flatnonzero(_dot(F, vectors, vectors) == 1)
    x = vectors[keep]
    form = F.mul_table[F.embed(2), _dot(F, x[:, None], x[None, :])]
    return _vector_quandle(F, x, keep, form, F.neg_table[x])


def core(group: GroupTable) -> FiniteQuandle:
    """The core quandle of a group: g <| h = h g^-1 h."""
    n, m = group.order, group.array
    inv = [group.inv(g) for g in range(n)]
    table = np.empty((n, n), dtype=np.int64)
    # m[:, invs].T[g, h] = h g^-1, and the gather multiplies it by h on the right
    for g0, invs in perms.row_blocks(inv, n):
        table[g0 : g0 + len(invs)] = m[m[:, invs].T, np.arange(n)]
    # the group's labels as given, so that unread labels stay unmade
    return validate(table, labels=group._labels)


def conjugation_reflections(w: PermGroup, seeds) -> FiniteQuandle:
    """The quandle of reflections: conjugacy closure of involution seeds.

    Elements are the W-conjugates of the seeds, image rows, with
    a <| b = b^-1 a b; they are sorted lexicographically for a stable
    order.  The closure conjugates each new element by every generator at
    once, by gathers, and knows its elements by their keys on a base of W;
    the table is `perms.tabulate` on that base.
    """
    seeds = np.asarray(seeds, dtype=np.int32).reshape(-1, w.degree)
    for s in seeds:
        if (s == np.arange(w.degree)).all() or (s[s] != np.arange(w.degree)).any():
            raise SeedNotInvolution(f"{tuple(s.tolist())} is not an involution")
        if not w.contains(s):
            raise ValueError(f"seed {tuple(s.tolist())} is not an element of the group")
    base = perms.base_points(w)
    inverses = np.argsort(w.generators, axis=1)
    frontier = seeds[np.sort(np.unique(perms.base_keys(seeds), return_index=True)[1])]
    known = set(perms.base_keys(frontier[:, base]).tolist())
    closure = [frontier]
    while len(frontier):
        # g^-1 s g for every s in the frontier and every generator g
        images = np.concatenate([g[frontier[:, inv]] for g, inv in zip(w.generators, inverses)])
        fresh = []
        for i, key in enumerate(perms.base_keys(images[:, base]).tolist()):
            if key not in known:
                known.add(key)
                fresh.append(i)
        frontier = images[fresh]
        closure.append(frontier)
    elements, table = perms.tabulate(np.concatenate(closure), base, conjugate=True)
    return validate(table, labels=perms.perm_labels(elements))


def coxeter_reflection_quandle(kind: str) -> FiniteQuandle:
    """The reflections of the Coxeter group a label names (see
    groups.coxeter_generators): the conjugates of its simple reflections."""
    _name, degree, gens = coxeter_generators(kind)
    return conjugation_reflections(PermGroup(degree, gens), gens)
