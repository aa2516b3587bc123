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
the arrays, verify in the row blocks of `perms.row_blocks`.  A caller
builds one model and runs all its checks on it; the quandle table they
read is built once per model too.

This module also provides the (non-homogeneous) bar complex of a group,
the chain maps c_k from the rack complex into it, the explicit homotopies
h_k, and verification routines for the degree-2 and degree-3 homotopy
identities, plus bar-complex H_2 for small groups.  A chain is a plain
dict {tuple: coeff} without zero terms, as homology.boundary_chain returns
for the rack complex; its degree is the length of its tuples.  The c_k,
the h_k and the closed form of the degree-3 residual are written once,
as term tables (ChainTable).  Each identity is compiled once per type
into a column program: the tables expanded at symbolic arguments, then
the rack faces and d^gr, literally equal columns summed and the zero sums
dropped, which removes about half the columns.  The verifier runs the
program on blocks of tuples with arrays.  In the first block each tuple's
columns are sorted and equal bar tuples summed.  A balanced sorted row
gives a template: the entries each column shares with the first column
of its run.  A later tuple whose codes agree on every such pair writes
each run as one bar tuple, whose coefficients sum to zero, so it cancels
exactly; only the tuples that miss the template are sorted, and a finer
sorted row replaces it.  The dict chains the tests and the failure
reports read run the programs of single tables at one tuple.  The
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
        kk = k * k
        pairs = [(i, j) for i in range(k) for j in range(k)]
        terms = [(i * k + j, i * k + j, 1) for i, j in pairs]
        terms += [(a * k + i, i * k + j, -spec.t_matrix[a][j]) for i, j in pairs for a in range(k)]
        terms += [(g, kk + g, gcd(orders[i], orders[j])) for g, (i, j) in enumerate(pairs)]
        terms = np.array(terms, dtype=np.int64).reshape(-1, 3).T
        diag, U = smith_normal_form(SparseIntMatrix.from_arrays(kk, 2 * kk, *terms))
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
    a, b = np.divmod(np.arange(n * n), n)  # column a*n + b holds e_a + e_b - e_ab
    rows, cols = np.concatenate((a, b, table.ravel())), np.tile(np.arange(n * n), 3)
    inv = cokernel(SparseIntMatrix.from_arrays(n, n * n, rows, cols, np.repeat([1, 1, -1], n * n)))
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


class ChainTable(NamedTuple):
    """A chain of elements of the adjoint group, written once as terms.

    The chain of arity k reads the points `names` derived from its k
    arguments (see _points).  Each term is a coefficient and a tuple of
    entries: `u` stands for e_u, `u^t` for e_u^t (t the type), and `u^j`
    for e_u^j, the term then being summed over j = 1 .. t-1.
    """

    names: tuple[str, ...]
    terms: tuple[tuple[int, tuple[str, ...]], ...]


def _table(names: str, terms: str) -> ChainTable:
    """A ChainTable from point names and comma-separated signed terms."""
    return ChainTable(
        tuple(names.split()),
        tuple((1 if t.strip()[0] == "+" else -1, tuple(t.strip()[1:].split()))
              for t in terms.split(",")),
    )


# the chain maps c_k into the bar complex, the homotopies h_k, and the
# closed form of the degree-3 residual in y, z (w = y <| z; B = y^t is
# the central value of e_u^t)
C2 = _table("x y xy", "+ x y, - y xy")
C3 = _table("x y z xy xz yz A", "+ x y z, - x z yz, + y z A, - y xy z, + z xz yz, - z yz A")
H1 = _table("x", "+ x x^j")
H2 = _table("x y xy", "+ x y xy^j, - x x^j y, - y xy xy^j, + y y^j y")
H3 = _table(
    "x y z xy xz yz A",
    "+ x y z A^j, - x z yz A^j, - x y xy^j z, - y xy z A^j, + x z xz^j yz, + z xz yz A^j,"
    "+ x x^j y z, - x x^j z yz, + y z A A^j, - z yz A A^j, - z xz xz^j yz, + y xy xy^j z",
)
TEMPLATE = _table(
    "y z w",
    "+ y z y^t, + y^t y z, - y^t z w, - y y^t z, + z y^t w, - z w y^t, - y y^j y, + w w^j w",
)

# columns per block of tuples: on the compiled programs, 2^12 and 2^13 made
# the bench's adjoint pass slower than 2^14, and 2^15 and 2^16 made it
# slower and raised its peak by 0.5 and 2 MB
BLOCK_TERMS = 2**14


def homotopy_terms(degree: int, n: int, t: int) -> int:
    """The terms of HomotopyVerifier's degree-2 or degree-3 check on an
    order-n quandle of type t, counted from the term tables alone: a term
    with a u^j entry stands for t - 1 terms, d^gr turns each term of H2 into
    4 and each of H3 into 5, and h is read on the 2(k - 1) rack faces of a
    k-tuple.  Its compiled program sums the literally equal ones, so this
    is an upper bound on the columns the check builds."""

    def count(table: ChainTable) -> int:
        return sum(t - 1 if any(s.endswith("^j") for s in e) else 1 for _, e in table.terms)

    if degree == 2:
        return n * n * (2 * count(H1) + count(C2) + 4 * count(H2))
    return n**3 * (count(C3) + 4 * count(H2) + 5 * count(H3) + count(TEMPLATE)) + n * n * count(C3)


# the chains compiled into column programs ----------------------------------


def _points(args) -> tuple:
    """The points a chain reads at its arguments: a; a, b, a <| b; or
    a, b, c, a <| b, a <| c, b <| c, (a <| b) <| c.  A point is a quandle
    word: the argument i is i, the word a <| b the pair (a, b)."""
    if len(args) == 3:
        a, b, c = args
        return a, b, c, (a, b), (a, c), (b, c), ((a, b), c)
    # a pair (a, b) reads a, b and the word (a, b) itself
    return args if len(args) == 1 else (*args, args)


def _rack_faces(args):
    """The rack boundary of a tuple of points, as boundary_chain writes it,
    without the first face, whose two halves cancel: (sign, face) pairs."""
    for i in range(1, len(args)):
        sign = 1 if i % 2 else -1
        yield sign, args[:i] + args[i + 1 :]
        yield -sign, tuple((a, args[i]) for a in args[:i]) + args[i + 1 :]


def _residual_parts(degree: int, t: int) -> tuple:
    """What the degree-k check sums on the tuples (0, .., k-1), as
    (scale, table, arguments, boundary) parts, boundary meaning d^gr of the
    chain: h1 d^R - t c2 - d^gr h2 on (x, y), or
    t c3 + h2 d^R - d^gr h3 - template(y, z) on (x, y, z)."""
    if degree == 2:
        return (*((s, H1, face, False) for s, face in _rack_faces((0, 1))),
                (-t, C2, (0, 1), False), (-1, H2, (0, 1), True))
    return ((t, C3, (0, 1, 2), False),
            *((s, H2, face, False) for s, face in _rack_faces((0, 1, 2))),
            (-1, H3, (0, 1, 2), True), (-1, TEMPLATE, (1, 2), False))


def _literal_columns(t: int, parts):
    """The (column, coefficient) pairs the parts write at type t, before
    equal columns are summed.  A column is a tuple of entries: (power,
    point) for e_point^power, or the product of two such entries, which
    d^gr writes.  Each table's terms without u^j entries come first, then
    the others over j = 1 .. t-1, outermost."""
    for scale, table, args, boundary in parts:
        point = dict(zip(table.names, _points(args)))
        for j in range(t):
            for c, names in table.terms:
                if any(s.endswith("^j") for s in names) != (j > 0):
                    continue
                e = tuple(({"": 1, "t": t, "j": j}[p], point[u])
                          for u, _, p in (s.partition("^") for s in names))
                c *= scale
                if boundary:
                    # d(g_1..g_k) = (g_2..g_k) + sum (-1)^i (..g_i g_i+1..) + (-1)^k (g_1..g_k-1)
                    yield e[1:], c
                    for i in range(1, len(e)):
                        yield e[: i - 1] + ((e[i - 1], e[i]),) + e[i + 1 :], -c if i % 2 else c
                    yield e[:-1], -c if len(e) % 2 else c
                else:
                    yield e, c


class _Program(NamedTuple):
    """The columns of a sum of chains that do not cancel by construction:
    words[i] = (a, b) makes point arity + i the word a <| b of earlier
    points; plain (2, P) and factors (2, 2, Q) hold the power and point of
    each plain entry and of the two factors of each product; columns[i, c]
    is the entry at position i of column c, products after the plain
    entries, and coeffs[c] its coefficient."""

    words: tuple
    plain: np.ndarray
    factors: np.ndarray
    columns: np.ndarray
    coeffs: np.ndarray


@cache
def _compile(t: int, arity: int, parts) -> _Program:
    """The program of the parts at type t on tuples of arity points: the
    literally equal columns summed, and those summing to zero dropped."""
    chain = _chain(_literal_columns(t, parts))
    index = {a: a for a in range(arity)}
    words = []

    def word(w):
        if w not in index:
            words.append((word(w[0]), word(w[1])))
            index[w] = arity + len(words) - 1
        return index[w]

    entries = [e for column in chain for e in column]
    plain = list(dict.fromkeys(e for e in entries if isinstance(e[0], int)))
    products = list(dict.fromkeys(e for e in entries if not isinstance(e[0], int)))
    entry = {e: i for i, e in enumerate(plain + products)}
    columns = np.array([[entry[e] for e in column] for column in chain], dtype=np.int64)
    plain = np.array([(p, word(w)) for p, w in plain], dtype=np.int64).reshape(-1, 2).T
    factors = np.array([[(p, word(w)) for p, w in f] for f in products], dtype=np.int64)
    return _Program(tuple(words), plain, factors.reshape(-1, 2, 2).transpose(1, 2, 0),
                    np.ascontiguousarray(columns.T), np.array(list(chain.values()), dtype=np.int64))


def _key_digits(radix: int) -> int:
    """How many base-radix digits an int64 key holds without wrapping."""
    digits = 1
    while radix ** (digits + 1) < 2**63:
        digits += 1
    return digits


def _first_unbalanced_row(keys, coeffs: np.ndarray):
    """The first row whose coefficients do not cancel on every key, or None,
    and the sort that decided it: each row's columns in key order, and
    where a run of equal keys starts.

    keys are int64 arrays (rows, columns), most significant first, and
    coeffs the coefficient of each column; each row is sorted and its equal
    keys summed, as homology's assembly does per column.
    """
    order = np.argsort(keys[0], axis=1) if len(keys) == 1 else np.lexsort(keys[::-1], axis=1)
    new = np.zeros(order.shape, dtype=bool)
    new[:, 0] = True
    for key in keys:
        key = np.take_along_axis(key, order, axis=1)
        new[:, 1:] |= key[:, 1:] != key[:, :-1]
    starts = np.flatnonzero(new)
    sums = np.add.reduceat(coeffs[order].ravel(), starts)
    bad = starts[sums != 0]
    return (int(bad[0]) // order.shape[1] if bad.size else None), order, new


def _template(columns: np.ndarray, order: np.ndarray, new: np.ndarray):
    """The cancellation pattern of the sorted, balanced row with the most
    distinct keys: that count, and the entry pairs (a, b) each column
    shares with the first column of its run, a < b, without repeats.

    Each run's coefficients sum to zero.  A row whose codes agree on every
    pair writes each run as one bar tuple, so it cancels too."""
    distinct = new.sum(axis=1)
    row = int(np.argmax(distinct))
    runs = np.flatnonzero(new[row])
    first = np.repeat(order[row, runs], np.diff(runs, append=new.shape[1]))
    a, b = columns[:, order[row]], columns[:, first]
    entries = int(columns.max()) + 1
    pairs = np.sort((np.minimum(a, b) * entries + np.maximum(a, b))[a != b])
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    return int(distinct[row]), *np.divmod(pairs, entries)


class HomotopyVerifier:
    """Chain maps c_k, homotopies h_k and the exact identities they satisfy.

    Works inside the adjoint model of a connected Alexander quandle; t is
    the quandle type.  All identities are verified term-for-term on formal
    chains, never just in homology: on blocks of tuples, by the compiled
    programs (_compile), an element (n, x, alpha) of exponent 0 <= n <= 2t
    coded as one integer and a bar tuple as its codes.  The dict methods
    c2 .. h3 run their tables' programs at one tuple, and the residuals sum
    them with the rack and group boundaries; a failure is reported from
    them.
    """

    def __init__(self, spec: AlexanderModuleSpec):
        self.spec = spec
        self.model = ClauwensGroup(spec)
        self.quandle = self.model.quandle
        self.t = self.model.type
        # e_u^j = (j, pow_x[j, u], pow_alpha[j, u]) for 0 <= j <= t
        self._pow_x, self._pow_alpha = np.zeros((2, self.t + 1, spec.size), dtype=np.int64)
        e_u = (1, np.arange(spec.size), 0)
        for j in range(1, self.t + 1):
            _, self._pow_x[j], self._pow_alpha[j] = self.model.mul_array(
                (j - 1, self._pow_x[j - 1], self._pow_alpha[j - 1]), e_u)
        # the code of e_u^j at [j, u]
        exponents = np.arange(self.t + 1)[:, None]
        self._pow_codes = ((exponents * spec.size + self._pow_x) * self.model.coker_order
                           + self._pow_alpha)
        # an entry has exponent 1, j or t, a product of two entries at most 2t;
        # a bar tuple is keyed by its elements' codes as base-radix digits,
        # digits_per_key of them to an int64 key, so that no key wraps
        self._radix = (2 * self.t + 1) * spec.size * self.model.coker_order
        self._digits_per_key = _key_digits(self._radix)

    def _entries(self, program: _Program, args) -> np.ndarray:
        """The codes of the program's entries at arrays (m,) of arguments, as
        an array (m, entries): points by gathers on the quandle table, plain
        entries from one table of the codes of e_u^p, products by mul_array."""
        q = self.quandle.array
        points = list(args)
        for a, b in program.words:
            points.append(q[points[a], points[b]])
        points = np.stack(points, axis=1)
        size, coker = self.spec.size, self.model.coker_order
        power, at = program.plain
        (p, u), (r, v) = program.factors
        n, x, alpha = self.model.mul_array(
            (p, self._pow_x[p, points[:, u]], self._pow_alpha[p, points[:, u]]),
            (r, self._pow_x[r, points[:, v]], self._pow_alpha[r, points[:, v]]))
        return np.concatenate(
            (self._pow_codes[power, points[:, at]], (n * size + x) * coker + alpha), axis=1)

    # the chains at one tuple, as dicts -------------------------------------

    def _chain_at(self, parts, *args) -> dict:
        """The program of the parts at one tuple, as a chain in column order."""
        program = _compile(self.t, len(args), parts)
        codes = self._entries(program, [np.array([a]) for a in args])[0].tolist()
        size, coker = self.spec.size, self.model.coker_order
        elements = [ClauwensElement(*divmod(c // coker, size), c % coker) for c in codes]
        return _chain((tuple(elements[i] for i in column), c)
                      for column, c in zip(program.columns.T.tolist(), program.coeffs.tolist()))

    def _table_at(self, table: ChainTable, *args) -> dict:
        return self._chain_at(((1, table, tuple(range(len(args))), False),), *args)

    def c2(self, x: int, y: int) -> dict:
        return self._table_at(C2, x, y)

    def c3(self, x: int, y: int, z: int) -> dict:
        return self._table_at(C3, x, y, z)

    def h1(self, x: int) -> dict:
        return self._table_at(H1, x)

    def h2(self, x: int, y: int) -> dict:
        return self._table_at(H2, x, y)

    def h3(self, x: int, y: int, z: int) -> dict:
        return self._table_at(H3, x, y, z)

    def residual_2(self, x: int, y: int) -> dict:
        """h1 d^R - d^gr h2 - t c2 on the pair (x, y); zero when the
        degree-2 homotopy identity holds."""
        faces = boundary_chain(self.quandle, (x, y)).items()
        chains = [*((c, self.h1(*face)) for face, c in faces), (-self.t, self.c2(x, y))]
        return _sum(chains, [(-1, self.h2(x, y))], self.model.mul)

    def residual_3(self, x: int, y: int, z: int) -> dict:
        """t c3 - h2 d3^R - d^gr h3 on the triple (x, y, z).

        The degree-3 rack boundary enters in the orientation
        d3(x,y,z) = (x <| y, z) - (x, z) + (x, y) - (x <| z, y <| z),
        the negative of boundary_chain's; each degree-level identity
        pins its own orientation, and this is the one under which the
        residual is independent of x (the degree-2 identity pins the
        opposite one for d2).
        """
        faces = boundary_chain(self.quandle, (x, y, z)).items()
        chains = [(self.t, self.c3(x, y, z)), *((c, self.h2(*face)) for face, c in faces)]
        return _sum(chains, [(-1, self.h3(x, y, z))], self.model.mul)

    def residual_3_template(self, y: int, z: int) -> dict:
        """The closed form of the degree-3 residual; depends on y, z only.

        Writing w = y <| z and B = the common central value of e_u^t, the
        residual is
            (e_y, e_z, B) + (B, e_y, e_z) - (B, e_z, e_w) - (e_y, B, e_z)
          + (e_z, B, e_w) - (e_z, e_w, B)
          - sum_{j=1..t-1} [ (e_y, e_y^j, e_y) - (e_w, e_w^j, e_w) ].
        """
        return self._table_at(TEMPLATE, y, z)

    # the programs on blocks of tuples --------------------------------------

    def _first_failure(self, parts, walk: range, tuple_of):
        """The first position in walk, its tuple given by tuple_of, that the
        program of the parts does not cancel on, or None.  The positions are
        taken in blocks of about BLOCK_TERMS columns.  The first block's
        rows are sorted: each tuple's codes packed into preallocated keys,
        one row per position.  From the second block on, a row whose codes
        agree on every pair of the template (_template) cancels, and only
        the rows that miss it are sorted; the template is read from the
        last sorted rows whenever they hold a finer pattern than it."""
        program = _compile(self.t, len(tuple_of(0)), parts)
        if not program.coeffs.size:
            return None
        degree, width = program.columns.shape
        rows = max(1, min(len(walk), BLOCK_TERMS // width))
        per_key, radix = self._digits_per_key, self._radix
        keys = np.empty((-(-degree // per_key), rows, width), dtype=np.int64)
        template = runs = None
        for start in range(walk.start, walk.stop, rows):
            if runs is not None:
                found = _template(program.columns, *runs)
                if template is None or found[0] > template[0]:
                    template = found
            block = np.arange(start, min(start + rows, walk.stop))
            codes = self._entries(program, tuple_of(block))
            if template is None:
                sort = block - start
            else:
                _, a, b = template
                sort = np.flatnonzero((codes[:, a] != codes[:, b]).any(axis=1))
                codes = codes[sort]
            runs, m = None, len(sort)
            if not m:
                continue
            for key, first in zip(keys, range(0, degree, per_key)):
                key = key[:m]
                np.take(codes, program.columns[first], axis=1, out=key)
                for column in program.columns[first + 1 : first + per_key]:
                    key *= radix
                    key += codes[:, column]
            bad, *runs = _first_unbalanced_row(keys[:, :m], program.coeffs)
            if bad is not None:
                return start + int(sort[bad])
        return None

    # the identities, certified on every tuple ------------------------------

    def _certify(self, lemma: str, parts, count: int, tuple_of, difference):
        """Raise IdentityFailed at the first of count tuples the program of
        the parts does not cancel on, with the difference the dict methods
        give there."""
        i = self._first_failure(parts, range(count), tuple_of)
        if i is not None:
            tup = tuple_of(i)
            diff = difference(*tup)
            if not diff:
                raise AssertionError(f"block check and chains disagree at {tup}")
            raise IdentityFailed(lemma, tup, diff)

    def degree_2(self) -> HomotopyReport:
        """Certify h1 d^R - d^gr h2 = t c2 on every pair, term for term."""
        n = self.spec.size
        self._certify("degree-2 homotopy identity", _residual_parts(2, self.t), n * n,
                      lambda i: divmod(i, n), self.residual_2)
        return HomotopyReport(type=self.t, tuples_checked=n * n, status="pass")

    def degree_3(self) -> HomotopyReport:
        """Certify the degree-3 residual t c3 - h2 d^R - d^gr h3:

        (a) it matches its closed form in y and z term for term, so it does
            not depend on the first argument,
        (b) c3(x, x, z) vanishes identically as a chain.
        """
        n = self.spec.size
        self._certify(
            "degree-3 residual differs from its closed form", _residual_parts(3, self.t), n**3,
            lambda i: (i % n, *divmod(i // n, n)),
            lambda x, y, z: _sum([(1, self.residual_3(x, y, z)),
                                  (-1, self.residual_3_template(y, z))]))
        self._certify("c3 on repeated arguments", ((1, C3, (0, 0, 2), False),), n * n,
                      lambda i: (i // n, i // n, i % n), self.c3)
        return HomotopyReport(type=self.t, tuples_checked=n**3, status="pass")


@dataclass
class HomotopyReport:
    """Outcome of a chain-identity verification."""

    type: int
    tuples_checked: int
    status: str


def verify_homotopy_2(spec: AlexanderModuleSpec) -> HomotopyReport:
    """The degree-2 identity on every pair; see HomotopyVerifier.degree_2."""
    return HomotopyVerifier(spec).degree_2()


def verify_homotopy_3(spec: AlexanderModuleSpec) -> HomotopyReport:
    """The degree-3 residual checks; see HomotopyVerifier.degree_3."""
    return HomotopyVerifier(spec).degree_3()


# ---------------------------------------------------------------------------
# group homology via the normalized bar complex


BAR_GROUP_CAP = 30


def group_h2_bar(group: GroupTable, cap: int = BAR_GROUP_CAP) -> AbelianGroupInvariants:
    """H_2 of a finite group from the normalized bar complex.

    Bases in degree k are k-tuples of non-identity elements, of size
    (|G| - 1)^k; boundaries drop any face containing the identity.
    Guarded by a |G| <= 30 cap by default; pass cap to override.
    """
    n = group.order
    if n > cap:
        raise ValueError(f"group order {n} exceeds bar-complex cap {cap}")
    nontriv = list(range(1, n))

    def basis(k):
        return list(product(nontriv, repeat=k))

    def matrix(k):
        rows = basis(k - 1)
        cols = basis(k)
        ridx = {t: i for i, t in enumerate(rows)}
        terms = [
            (ridx[t], j, c)
            for j, tup in enumerate(cols)
            for t, c in bar_boundary({tup: 1}, group.mul).items()
            if 0 not in t
        ]
        terms = np.array(terms, dtype=np.int64).reshape(-1, 3).T
        return SparseIntMatrix.from_arrays(len(rows), len(cols), *terms)

    return homology_at(matrix(3), matrix(2))
