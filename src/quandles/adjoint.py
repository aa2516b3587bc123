"""The adjoint group of a connected Alexander quandle, made computable.

For a connected Alexander quandle X over (M, T) the adjoint group --- the
group generated by symbols e_x subject to e_{x <| y} = e_y^-1 e_x e_y ---
is modelled exactly on the set Z x M x coker(mu) with

    (n, x, a) * (m, y, b) = (n + m, T^m x + y, a + b + [T^m x (x) y]),

where mu: M (x) M -> M (x) M is mu(x (x) y) = x (x) y - Ty (x) x and
e_x = (1, x, 0).  The first coordinate is the total exponent map; the
element (n, x, a) acts on the module by v -> T^n v + (1 - T) x.

Elements are stored as integer codes: x is the module index of
AlexanderModuleSpec and a is the mixed-radix code of a coker(mu) class
over its invariant factors, first coordinate least significant.  The
module coordinates and T as a permutation of indices come from the spec;
from them the model tabulates T^m, module addition, negation and (1 - T),
the classes [x (x) y] and coker addition and negation once, as read-only
int64 arrays.  [x (x) y] is bilinear, so its table is read off the k x k
classes [e_i (x) e_j].  mul_array, inv_array and act_array compute on
arrays of elements; they are the model's one product, inverse and
action, and mul, inv and act_index are scalar wrappers over them.  The
checks of the model (verify, kernel, central_power, stabilizer_h2) read
the arrays, verify in the row blocks of `perms.row_blocks`, and the
homotopy verifier multiplies each distinct pair it meets once, through a
memo of its own.  A caller builds one model and
runs all its checks on it; the quandle table they read is built once per
model too.

This module also provides the (non-homogeneous) bar complex of a group,
the chain maps c_k from the rack complex into it, the explicit homotopies
h_k, and verification routines for the degree-2 and degree-3 homotopy
identities, plus bar-complex H_2 for small groups.  A chain is a plain
dict {tuple: coeff} without zero terms, as homology.boundary_chain returns
for the rack complex; its degree is the length of its tuples.  The
degree-3 check compares each residual with its closed form in y and z
only: a residual equal to that form cannot depend on x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from math import gcd, prod
from typing import NamedTuple

import numpy as np

from .families import AlexanderModuleSpec, alexander
from .fields import codes, digit_rows
from .groups import GroupTable
from .homology import boundary_chain
from .intlin import (
    AbelianGroupInvariants,
    SparseIntMatrix,
    cokernel,
    homology_at,
    smith_normal_form,
)
from .perms import row_blocks


class NotConnected(ValueError):
    """The construction needs a connected Alexander quandle."""


class IdentityFailed(ValueError):
    """A chain-level identity that must hold exactly does not."""

    def __init__(self, lemma: str, tup, difference):
        self.lemma = lemma
        self.tuple = tup
        self.difference = difference
        super().__init__(f"{lemma} fails at {tup}: nonzero difference {difference}")


class ClauwensElement(NamedTuple):
    """An adjoint-group element (n, x, alpha) in canonical form.

    x is the module index of the spec (coordinates via spec.coords);
    alpha is the mixed-radix code of a coker(mu) class over the invariant
    factors, first coordinate least significant (coordinates via
    ClauwensGroup.alpha_coords).
    """

    n: int
    x: int
    alpha: int


def _sum_codes(digits: np.ndarray, radices) -> np.ndarray:
    """Entry (i, j) is the code of digit row i plus digit row j.

    The n x n table is accumulated one coordinate at a time, so the
    temporaries stay n x n whatever the number of coordinates.
    """
    n = len(digits)
    out = np.zeros((n, n), dtype=np.int64)
    place = 1
    for col, d in zip(digits.T, radices):
        out += (col[:, None] + col[None, :]) % d * place
        place *= d
    return out


def _equal(g, h) -> np.ndarray:
    """Where the elements g and h, triples (n, x, alpha) of arrays, agree."""
    return (g[0] == h[0]) & (g[1] == h[1]) & (g[2] == h[2])


# verify checks inverses and associativity on e_0 .. e_5 and e_0^-1
_SAMPLE = 6


class ClauwensGroup:
    """Exact model of the adjoint group of a connected Alexander quandle."""

    def __init__(self, spec: AlexanderModuleSpec):
        if not spec.is_connected():
            raise NotConnected(f"{spec!r} is not connected")
        self.spec = spec
        orders = spec.torsion_orders
        k = len(orders)
        # M (x) M is generated by e_i (x) e_j with order gcd(d_i, d_j);
        # mu sends e_i (x) e_j to e_i (x) e_j - sum_a T[a][j] e_a (x) e_i.
        tensor_orders = [gcd(orders[i], orders[j]) for i in range(k) for j in range(k)]
        kk = k * k
        rel = SparseIntMatrix(kk, 2 * kk)
        for i in range(k):
            for j in range(k):
                col = i * k + j
                rel.add(i * k + j, col, 1)
                for a in range(k):
                    tval = spec.t_matrix[a][j]
                    if tval:
                        rel.add(a * k + i, col, -tval)
        for g in range(kk):
            rel.set(g, kk + g, tensor_orders[g])
        diag, U, _V = smith_normal_form(rel, transforms=True)
        if len(diag) != kk:
            raise AssertionError("tensor square of a finite module must be finite")
        positions = [i for i, d in enumerate(diag) if d > 1]
        invariants = tuple(diag[i] for i in positions)
        self.coker_invariants = AbelianGroupInvariants(0, invariants)
        self.coker_order = prod(invariants)
        self.identity = ClauwensElement(0, 0, 0)

        n = self._size = spec.size
        coords = spec.coord_rows
        self.type = spec.t_order()
        # t_pow[m, v] is the index of T^m v, for 0 <= m < type
        self.t_pow = np.empty((self.type, n), dtype=np.int64)
        self.t_pow[0] = np.arange(n)
        for m in range(1, self.type):
            self.t_pow[m] = spec.t_perm[self.t_pow[m - 1]]
        self.add_table = _sum_codes(coords, orders)
        self.neg_table = codes(-coords, orders)
        self.one_minus_t = codes(coords - spec.t_rows, orders)
        # coordinate p of [x (x) y] is x^T B_p y, where B_p[i][j] is
        # coordinate p of the class [e_i (x) e_j]: row p of U at i*k + j
        self.tensor = np.zeros((n, n), dtype=np.int64)
        place = 1
        for pos, d in zip(positions, invariants):
            b = np.array([v % d for v in U[pos]], dtype=np.int64).reshape(k, k)
            self.tensor += (coords @ b @ coords.T) % d * place
            place *= d
        # row a of alpha_rows holds the coker(mu) coordinates of code a
        self.alpha_rows = digit_rows(self.coker_order, invariants)
        self.coker_add = _sum_codes(self.alpha_rows, invariants)
        self.coker_neg = codes(-self.alpha_rows, invariants)
        for table in (self.t_pow, self.add_table, self.neg_table, self.one_minus_t,
                      self.tensor, self.alpha_rows, self.coker_add, self.coker_neg):
            table.setflags(write=False)

    @cached_property
    def quandle(self):
        """The Alexander quandle table of the spec, built on first use."""
        return alexander(self.spec)

    def alpha_coords(self, alpha: int) -> tuple[int, ...]:
        """The coker(mu) coordinates of a class code."""
        return tuple(self.alpha_rows[alpha].tolist())

    # -- group operations -----------------------------------------------------

    def e(self, x_index: int) -> ClauwensElement:
        """The generator e_x for the module element of the given index."""
        return ClauwensElement(1, x_index, 0)

    def mul_array(self, g, h):
        """mul on elements given as triples (n, x, alpha) of ints or int
        arrays, broadcast against each other."""
        n, x, a = g
        m, y, b = h
        tx = self.t_pow[m % self.type, x]
        alpha = self.coker_add[self.coker_add[a, b], self.tensor[tx, y]]
        return n + m, self.add_table[tx, y], alpha

    def inv_array(self, g):
        n, x, a = g
        tx = self.t_pow[-n % self.type, x]
        y = self.neg_table[tx]
        return -n, y, self.coker_neg[self.coker_add[a, self.tensor[tx, y]]]

    def act_array(self, v, g):
        """The right action v . (n, x, a) = T^n v + (1 - T) x, on arrays."""
        n, x, _ = g
        return self.add_table[self.t_pow[n % self.type, v], self.one_minus_t[x]]

    def mul(self, g: ClauwensElement, h: ClauwensElement) -> ClauwensElement:
        return ClauwensElement(*map(int, self.mul_array(g, h)))

    def inv(self, g: ClauwensElement) -> ClauwensElement:
        return ClauwensElement(*map(int, self.inv_array(g)))

    def act_index(self, v_index: int, g: ClauwensElement) -> int:
        return int(self.act_array(v_index, g))

    def verify(self):
        """Construction checks: e(x <| y) = e(y)^-1 e(x) e(y) and x . e(y) =
        x <| y on every pair, in blocks of rows x, reporting the first
        failing pair in row-major order; then inverses and associativity on
        e_0 .. e_5, e_0^-1."""
        n = self._size
        quandle = self.quandle.array
        ys = np.arange(n)
        e_y = (1, ys, 0)
        inv_e_y = self.inv_array(e_y)
        for x0, expected in row_blocks(quandle, n):
            xs = ys[x0 : x0 + len(expected), None]
            # both sides have exponent 1 by construction
            _, x_part, alpha = self.mul_array(self.mul_array(inv_e_y, (1, xs, 0)), e_y)
            relation = (x_part != expected) | (alpha != 0)
            bad = relation | (self.act_array(xs, e_y) != expected)
            if bad.any():
                x, y = divmod(int(np.argmax(bad)), n)
                kind = "relation fails" if relation[x, y] else "action mismatch"
                raise AssertionError(f"{kind} at ({x0 + x}, {y})")
        sample = [self.e(x) for x in range(min(n, _SAMPLE))] + [self.inv(self.e(0))]
        f, g, h = (tuple(np.reshape(v, shape) for v in zip(*sample))
                   for shape in ((-1, 1, 1), (1, -1, 1), (1, 1, -1)))
        f_inv = self.inv_array(f)
        inverse = (_equal(self.mul_array(f, f_inv), self.identity)
                   & _equal(self.mul_array(f_inv, f), self.identity))
        associative = _equal(self.mul_array(self.mul_array(f, g), h),
                             self.mul_array(f, self.mul_array(g, h)))
        # the first sample element failing either, its inverse checked first
        bad = np.flatnonzero(~(inverse.ravel() & associative.all(axis=(1, 2))))
        if bad.size:
            raise AssertionError("associativity fails" if inverse.flat[bad[0]] else "inverse fails")
        return True

    def kernel(self) -> tuple[int, AbelianGroupInvariants]:
        """Kernel of the action on the quandle: type * Z  x  coker(mu).

        Certifies that the kernel elements with |exponent| <= 2 * type are
        exactly { (m, 0, alpha) : type | m }: (m, x, alpha) sends 0 to
        (1 - T) x, so it can act trivially only if (1 - T) x = 0, and then
        does iff row m mod type of the T^m table is the identity.
        """
        fixed_x = np.flatnonzero(self.one_minus_t == 0).tolist()
        rows = (self.add_table[self.t_pow, 0] == np.arange(self._size)).all(axis=1)
        if fixed_x != [0] or np.flatnonzero(rows).tolist() != [0]:
            raise AssertionError("action kernel does not have the product shape")
        return self.type, self.coker_invariants

    def central_power(self) -> bool:
        """e_x^t is one central element independent of x (t the quandle type)."""
        e_x = (1, np.arange(self._size), 0)
        power = (0, 0, 0)
        for _ in range(self.type):
            power = self.mul_array(power, e_x)
        z = (power[0], power[1][0], power[2][0])
        central = _equal(self.mul_array(z, e_x), self.mul_array(e_x, z))
        return bool(_equal(power, z).all() and central.all())

    def stabilizer_h2(self) -> AbelianGroupInvariants:
        """H_2 of the quandle from the stabilizer side of the model.

        The elements of exponent zero fixing the base point form exactly
        the slice {(0, 0, alpha)}; its invariants as an abstract abelian
        group are the second quandle homology.
        """
        # the action ignores alpha, so the slice is read off x
        fixing = self.act_array(0, (0, np.arange(self._size), 0)) == 0
        alphas = np.arange(self.coker_order)
        _, x, table = self.mul_array((0, 0, alphas[:, None]), (0, 0, alphas))
        if np.flatnonzero(fixing).tolist() != [0] or x != 0:
            raise AssertionError("stabilizer slice is not {(0, 0, alpha)}")
        if (table != table.T).any():
            raise AssertionError("stabilizer slice is not abelian")
        return _abelian_invariants(table)


def clauwens_group(spec: AlexanderModuleSpec) -> ClauwensGroup:
    """Build and self-check the adjoint-group model."""
    g = ClauwensGroup(spec)
    g.verify()
    return g


def action_kernel(spec: AlexanderModuleSpec):
    """(type, coker invariants) of the action kernel; see ClauwensGroup.kernel."""
    return ClauwensGroup(spec).kernel()


def central_power_check(spec: AlexanderModuleSpec) -> bool:
    """e_x^t is one central element; see ClauwensGroup.central_power."""
    return ClauwensGroup(spec).central_power()


def _abelian_invariants(table: np.ndarray) -> AbelianGroupInvariants:
    """Invariant factors of a finite abelian group given by its product
    table on 0 .. n-1: the group presented on all its elements with one
    relation per product, read off the Smith form."""
    n = len(table)
    m = SparseIntMatrix(n, n * n)
    for col, (a, b) in enumerate(product(range(n), repeat=2)):
        m.add(a, col, 1)
        m.add(b, col, 1)
        m.add(int(table[a, b]), col, -1)
    inv = cokernel(m)
    if inv.free_rank != 0:
        raise AssertionError("finite group with free abelianization")
    return inv


def eisermann_h2(spec: AlexanderModuleSpec) -> AbelianGroupInvariants:
    """H_2 of the quandle from the model; see ClauwensGroup.stabilizer_h2."""
    return ClauwensGroup(spec).stabilizer_h2()


# ---------------------------------------------------------------------------
# bar complex machinery


def _chain(pairs) -> dict:
    """The chain sum of coeff * tup over (tup, coeff) pairs, with the zero
    terms dropped."""
    terms: dict = {}
    get = terms.get
    for tup, coeff in pairs:
        terms[tup] = get(tup, 0) + coeff
    return {tup: c for tup, c in terms.items() if c}


def _sum(chains, boundaries=(), mul=None) -> dict:
    """The chain sum of scale * chain over the (scale, chain) pairs of
    `chains`, plus scale * d(chain) over those of `boundaries`, with d the
    bar differential of the product `mul`; the zero terms are dropped."""
    terms: dict = {}
    get = terms.get
    for scale, chain in chains:
        for tup, coeff in chain.items():
            terms[tup] = get(tup, 0) + scale * coeff
    for scale, chain in boundaries:
        for tup, coeff in chain.items():
            c, k = scale * coeff, len(tup)
            face = tup[1:]
            terms[face] = get(face, 0) + c
            for i in range(1, k):
                face = tup[: i - 1] + (mul(tup[i - 1], tup[i]),) + tup[i + 1 :]
                terms[face] = get(face, 0) + (-c if i % 2 else c)
            face = tup[:-1]
            terms[face] = get(face, 0) + (-c if k % 2 else c)
    return {tup: c for tup, c in terms.items() if c}


def bar_boundary(chain: dict, mul) -> dict:
    """Non-homogeneous bar differential, on a chain of degree >= 1.

    d(g_1, ..., g_k) = (g_2, ..., g_k)
                       + sum_{i=1..k-1} (-1)^i (g_1, ..., g_i g_{i+1}, ..., g_k)
                       + (-1)^k (g_1, ..., g_{k-1});
    degree 1 maps to zero (the two empty faces cancel).
    """
    return _sum((), [(1, chain)], mul)


class HomotopyVerifier:
    """Chain maps c_k, homotopies h_k and the exact identities they satisfy.

    Works inside the adjoint model of a connected Alexander quandle; t is
    the quandle type.  All identities are verified term-for-term on formal
    chains, never just in homology.
    """

    def __init__(self, spec: AlexanderModuleSpec):
        self.spec = spec
        self.model = ClauwensGroup(spec)
        self.quandle = self.model.quandle
        self.t = self.model.type
        self._e = [self.model.e(x) for x in range(spec.size)]
        # _pow[x][j] = e_x^j for 0 <= j <= t, raised for all x at once
        x, alpha = np.zeros((2, self.t + 1, spec.size), dtype=np.int64)
        e_x = (1, np.arange(spec.size), 0)
        for j in range(1, self.t + 1):
            _, x[j], alpha[j] = self.model.mul_array((j - 1, x[j - 1], alpha[j - 1]), e_x)
        self._pow = [[ClauwensElement(j, *xa) for j, xa in enumerate(zip(xs, alphas))]
                     for xs, alphas in zip(x.T.tolist(), alpha.T.tolist())]
        # the products the bar boundaries meet, each computed once
        self._mul = cache(self.model.mul)
        # h2 chains of the rack-boundary faces in residual_3, one per pair
        self._h2_of_pair: dict = {}

    # chain maps ------------------------------------------------------------

    def c1(self, x: int) -> dict:
        return {(self._e[x],): 1}

    def c2(self, x: int, y: int) -> dict:
        e = self._e
        xy = self.quandle.apply(x, y)
        return _chain([((e[x], e[y]), 1), ((e[y], e[xy]), -1)])

    def c3(self, x: int, y: int, z: int) -> dict:
        q = self.quandle
        xy, xz, yz = q.apply(x, y), q.apply(x, z), q.apply(y, z)
        ex, ey, ez, exy, exz, eyz, eA = (self._e[v] for v in (x, y, z, xy, xz, yz, q.apply(xy, z)))
        return _chain([
            ((ex, ey, ez), 1),
            ((ex, ez, eyz), -1),
            ((ey, ez, eA), 1),
            ((ey, exy, ez), -1),
            ((ez, exz, eyz), 1),
            ((ez, eyz, eA), -1),
        ])

    # homotopies ------------------------------------------------------------

    def h1(self, x: int) -> dict:
        ex = self._e[x]
        return _chain([((ex, p), 1) for p in self._pow[x][1 : self.t]])

    def h2(self, x: int, y: int) -> dict:
        xy = self.quandle.apply(x, y)
        ex, ey, exy = self._e[x], self._e[y], self._e[xy]
        pairs = []
        for pxy, px, py in zip(*(self._pow[v][1 : self.t] for v in (xy, x, y))):
            pairs += (
                ((ex, ey, pxy), 1),
                ((ex, px, ey), -1),
                ((ey, exy, pxy), -1),
                ((ey, py, ey), 1),
            )
        return _chain(pairs)

    def h3(self, x: int, y: int, z: int) -> dict:
        q = self.quandle
        xy, xz, yz = q.apply(x, y), q.apply(x, z), q.apply(y, z)
        A = q.apply(xy, z)
        ex, ey, ez, exy, exz, eyz, eA = (self._e[v] for v in (x, y, z, xy, xz, yz, A))
        pairs = []
        for pA, pxy, pxz, px in zip(*(self._pow[v][1 : self.t] for v in (A, xy, xz, x))):
            pairs += (
                ((ex, ey, ez, pA), 1),
                ((ex, ez, eyz, pA), -1),
                ((ex, ey, pxy, ez), -1),
                ((ey, exy, ez, pA), -1),
                ((ex, ez, pxz, eyz), 1),
                ((ez, exz, eyz, pA), 1),
                ((ex, px, ey, ez), 1),
                ((ex, px, ez, eyz), -1),
                ((ey, ez, eA, pA), 1),
                ((ez, eyz, eA, pA), -1),
                ((ez, exz, pxz, eyz), -1),
                ((ey, exy, pxy, ez), 1),
            )
        return _chain(pairs)

    # rack boundaries mapped through the h's ---------------------------------

    def _memo_h2(self, x: int, y: int) -> dict:
        h2 = self._h2_of_pair.get((x, y))
        if h2 is None:
            h2 = self._h2_of_pair[x, y] = self.h2(x, y)
        return h2

    def _h_of_boundary(self, tup, h):
        """The (coeff, h(face)) pairs of h applied to the rack boundary of tup."""
        return [(coeff, h(*face)) for face, coeff in boundary_chain(self.quandle, tup).items()]

    def residual_2(self, x: int, y: int) -> dict:
        """h1 d^R - d^gr h2 - t c2 on the pair (x, y); zero when the
        degree-2 homotopy identity holds."""
        chains = [*self._h_of_boundary((x, y), self.h1), (-self.t, self.c2(x, y))]
        return _sum(chains, [(-1, self.h2(x, y))], self._mul)

    def residual_3(self, x: int, y: int, z: int) -> dict:
        """t c3 - h2 d3^R - d^gr h3 on the triple (x, y, z).

        The degree-3 rack boundary enters in the orientation
        d3(x,y,z) = (x <| y, z) - (x, z) + (x, y) - (x <| z, y <| z),
        the negative of boundary_chain's; each degree-level identity
        pins its own orientation, and this is the one under which the
        residual is independent of x (the degree-2 identity pins the
        opposite one for d2).
        """
        chains = [(self.t, self.c3(x, y, z)), *self._h_of_boundary((x, y, z), self._memo_h2)]
        return _sum(chains, [(-1, self.h3(x, y, z))], self._mul)

    def residual_3_template(self, y: int, z: int) -> dict:
        """The closed form of the degree-3 residual; depends on y, z only.

        Writing w = y <| z and B = the common central value of e_u^t, the
        residual is
            (e_y, e_z, B) + (B, e_y, e_z) - (B, e_z, e_w) - (e_y, B, e_z)
          + (e_z, B, e_w) - (e_z, e_w, B)
          - sum_{j=1..t-1} [ (e_y, e_y^j, e_y) - (e_w, e_w^j, e_w) ].
        """
        w = self.quandle.apply(y, z)
        ey, ez, ew = self._e[y], self._e[z], self._e[w]
        B = self._pow[y][self.t]
        pairs = [
            ((ey, ez, B), 1),
            ((B, ey, ez), 1),
            ((B, ez, ew), -1),
            ((ey, B, ez), -1),
            ((ez, B, ew), 1),
            ((ez, ew, B), -1),
        ]
        for py, pw in zip(self._pow[y][1 : self.t], self._pow[w][1 : self.t]):
            pairs += (((ey, py, ey), -1), ((ew, pw, ew), 1))
        return _chain(pairs)

    # the identities, certified on every tuple ------------------------------

    def degree_2(self) -> HomotopyReport:
        """Certify h1 d^R - d^gr h2 = t c2 on every pair, term for term."""
        n = self.spec.size
        checked = 0
        for x in range(n):
            for y in range(n):
                r = self.residual_2(x, y)
                if r:
                    raise IdentityFailed("degree-2 homotopy identity", (x, y), r)
                checked += 1
        return self._report("h1 dR - dgr h2 = t c2", checked)

    def degree_3(self) -> HomotopyReport:
        """Certify the degree-3 residual t c3 - h2 d^R - d^gr h3:

        (a) it matches its closed form in y and z term for term, so it does
            not depend on the first argument,
        (b) c3(x, x, z) vanishes identically as a chain.
        """
        n = self.spec.size
        checked = 0
        for y in range(n):
            for z in range(n):
                expected = self.residual_3_template(y, z)
                for x in range(n):
                    r = self.residual_3(x, y, z)
                    if r != expected:
                        raise IdentityFailed(
                            "degree-3 residual differs from its closed form",
                            (x, y, z),
                            _sum([(1, r), (-1, expected)]),
                        )
                    checked += 1
        for x in range(n):
            for z in range(n):
                c = self.c3(x, x, z)
                if c:
                    raise IdentityFailed("c3 on repeated arguments", (x, x, z), c)
        return self._report(
            "t c3 - h2 dR - dgr h3 is independent of x; c3(x,x,z) = 0", checked
        )

    def _report(self, identity: str, checked: int) -> HomotopyReport:
        return HomotopyReport(
            identity=identity,
            spec_label=self.spec.label(),
            quandle_order=self.spec.size,
            type=self.t,
            tuples_checked=checked,
            status="pass",
        )


@dataclass
class HomotopyReport:
    """Outcome of a chain-identity verification."""

    identity: str
    spec_label: str
    quandle_order: int
    type: int
    tuples_checked: int
    status: str
    detail: str = ""


def verify_homotopy_2(spec: AlexanderModuleSpec) -> HomotopyReport:
    """The degree-2 identity on every pair; see HomotopyVerifier.degree_2."""
    return HomotopyVerifier(spec).degree_2()


def verify_homotopy_3(spec: AlexanderModuleSpec) -> HomotopyReport:
    """The degree-3 residual checks; see HomotopyVerifier.degree_3."""
    return HomotopyVerifier(spec).degree_3()


# ---------------------------------------------------------------------------
# group homology via the normalized bar complex


BAR_GROUP_CAP = 30


def group_h2_bar(group: GroupTable, cap: int | None = None) -> AbelianGroupInvariants:
    """H_2 of a finite group from the normalized bar complex.

    Bases in degree k are k-tuples of non-identity elements, of size
    (|G| - 1)^k; boundaries drop any face containing the identity.
    Guarded by a |G| <= 30 cap by default; pass cap to override.
    """
    n = group.order
    limit = BAR_GROUP_CAP if cap is None else cap
    if n > limit:
        raise ValueError(f"group order {n} exceeds bar-complex cap {limit}")
    nontriv = list(range(1, n))

    def basis(k):
        return list(product(nontriv, repeat=k))

    def matrix(k):
        rows = basis(k - 1)
        cols = basis(k)
        ridx = {t: i for i, t in enumerate(rows)}
        m = SparseIntMatrix(len(rows), len(cols))
        for j, tup in enumerate(cols):
            for t, c in bar_boundary({tup: 1}, group.mul).items():
                if 0 in t:
                    continue
                m.add(ridx[t], j, c)
        return m

    return homology_at(matrix(3), matrix(2))
