"""The adjoint-group model, its kernel structure, the chain homotopies,
and bar-complex group homology.

Oracles:
- closed form for cyclic modules: H2 of the quandle on Z/d with scalar T=t
  is Z/gcd(d, 1-t) (the relation matrix is 1x1),
- the chain-level H2 computed independently from the rack complex,
- classical Schur multipliers of small groups,
- mutation checks: corrupted homotopies must be caught,
- the model's product, inverse and action against the defining formula on
  coordinate tuples, with an independent coker(mu) reduction,
- the element-at-a-time verify, kernel and central-power checks against
  the array ones, on correct models and on models with one corrupted cell,
- the scalar product on list views of the tables, the model's second
  product before mul became a wrapper, against the array product.
"""

import functools
import hashlib
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import adjoint, families, perms
from quandles.adjoint import (
    BAR_GROUP_CAP,
    ClauwensElement,
    ClauwensGroup,
    HomotopyVerifier,
    IdentityFailed,
    NotConnected,
    action_kernel,
    bar_boundary,
    central_power_check,
    clauwens_group,
    eisermann_h2,
    group_h2_bar,
    verify_homotopy_2,
    verify_homotopy_3,
)
from quandles.families import AlexanderModuleSpec
from quandles.grid import grid_by_key
from quandles.groups import from_permutations, named_group
from quandles.homology import quandle_h2
from quandles.intlin import (
    AbelianGroupInvariants,
    SparseIntMatrix,
    homology_at,
    smith_normal_form,
)

from alexander_specs import connected_alexander_specs, homotopy_suite_specs
from child_memory import child_peaks_kb
from smith_check import checked_smith_form


def Z(rank=0, *torsion):
    return AbelianGroupInvariants(rank, tuple(torsion))


SCALAR_SPECS = [
    ((3,), -1),
    ((5,), 2),
    ((5,), -1),
    ((7,), 3),
    ((9,), 2),
    ((15,), 2),
]


class TestModelArithmetic:
    def test_group_laws_on_sample(self):
        spec = AlexanderModuleSpec((2, 2), [[0, 1], [1, 1]])
        model = clauwens_group(spec)  # verify() runs inside
        e0 = model.e(0)
        assert e0.n == 1  # the total exponent
        assert model.mul(e0, model.inv(e0)) == model.identity
        cube = tuple(map(int, model.mul_array(model.mul_array(e0, e0), e0)))
        assert cube == model.mul(e0, model.mul(e0, e0))

    def test_epsilon_is_additive(self):
        spec = AlexanderModuleSpec.scalar((5,), 2)
        model = clauwens_group(spec)
        a = model.e(1)
        b = model.inv(model.e(3))
        assert model.mul(a, b).n == a.n + b.n

    def test_generators_act_as_columns(self):
        spec = AlexanderModuleSpec.scalar((7,), 3)
        model = clauwens_group(spec)
        q = families.alexander(spec)
        for x in range(7):
            for y in range(7):
                assert model.act_index(x, model.e(y)) == q.apply(x, y)

    def test_defining_relations(self):
        spec = AlexanderModuleSpec.scalar((3, 3), -1)
        model = clauwens_group(spec)
        q = families.alexander(spec)
        for x in range(9):
            for y in range(9):
                ey = model.e(y)
                lhs = model.e(q.apply(x, y))
                rhs = model.mul(model.mul(model.inv(ey), model.e(x)), ey)
                assert lhs == rhs

    def test_rejects_disconnected(self):
        spec = AlexanderModuleSpec.scalar((4,), -1)
        with pytest.raises(NotConnected):
            ClauwensGroup(spec)

    def test_model_memory_is_quadratic(self):
        # the addition table was formed from an |M| x |M| x k temporary: 311 MB here
        (peak,) = child_peaks_kb(
            "from quandles.adjoint import ClauwensGroup\n"
            "from quandles.families import AlexanderModuleSpec\n"
            "low = [1, 0, 0, 1, 0, 0, 0, 0, 0, 0]  # x^10 + x^3 + 1\n"
            "t = [[int(i == j + 1) for j in range(9)] + [low[i]] for i in range(10)]\n"
            "model = ClauwensGroup(AlexanderModuleSpec((2,) * 10, t))\n"
            "assert model.type == 1023\n"
            "assert model.kernel()[0] == 1023 and model.central_power()\n"
            "print(peak_kb())\n"
        )
        assert peak < 200 * 1024

    def test_homotopy_checks_call_no_scalar_mul(self, monkeypatch):
        # the verifier called mul 66,794 times here, then once on each of its
        # 182 distinct pairs; the block checks multiply with mul_array only
        calls = []
        mul = ClauwensGroup.mul

        def counted(self, g, h):
            calls.append((g, h))
            return mul(self, g, h)

        monkeypatch.setattr(ClauwensGroup, "mul", counted)
        verifier = HomotopyVerifier(AlexanderModuleSpec.scalar((13,), -1))
        verifier.degree_2()
        verifier.degree_3()
        assert calls == []

    def test_checks_share_one_model_and_table(self):
        spec = AlexanderModuleSpec.scalar((3, 3), -1)
        model = ClauwensGroup(spec)
        assert model.quandle is model.quandle
        assert model.quandle.table == families.alexander(spec).table
        assert model.kernel() == action_kernel(spec)
        assert model.central_power() and central_power_check(spec)
        assert model.stabilizer_h2() == eisermann_h2(spec) == Z(0, 3)
        verifier = HomotopyVerifier(spec)
        assert verifier.quandle is verifier.model.quandle
        assert verifier.degree_2() == verify_homotopy_2(spec)
        assert verifier.degree_3() == verify_homotopy_3(spec)


class TestKernelStructure:
    @pytest.mark.parametrize("orders,t", SCALAR_SPECS)
    def test_cyclic_closed_form(self, orders, t):
        spec = AlexanderModuleSpec.scalar(orders, t)
        kernel_type, coker = action_kernel(spec)
        assert kernel_type == spec.t_order()
        d = orders[0]
        expected = math.gcd(d, 1 - t)
        assert coker == (Z() if expected == 1 else Z(0, expected))

    def test_rank_two_module(self):
        spec = AlexanderModuleSpec.scalar((3, 3), -1)
        kernel_type, coker = action_kernel(spec)
        assert kernel_type == 2
        assert coker == Z(0, 3)

    def test_every_connected_grid_spec(self):
        for spec in connected_alexander_specs(max_order=16):
            kernel_type, coker = action_kernel(spec)
            assert kernel_type == spec.t_order()
            assert coker == ClauwensGroup(spec).coker_invariants

    @pytest.mark.parametrize("orders,t", SCALAR_SPECS[:3])
    def test_central_power(self, orders, t):
        assert central_power_check(AlexanderModuleSpec.scalar(orders, t))


class TestH2TripleOracle:
    @pytest.mark.parametrize(
        "orders,t",
        SCALAR_SPECS + [((2, 2), "fib"), ((3, 3), -1), ((3, 3), "rot")],
    )
    def test_three_routes_agree(self, orders, t):
        if t == "fib":
            spec = AlexanderModuleSpec(orders, [[0, 1], [1, 1]])
        elif t == "rot":
            spec = AlexanderModuleSpec(orders, [[0, 1], [2, 0]])
        else:
            spec = AlexanderModuleSpec.scalar(orders, t)
        chain = quandle_h2(families.alexander(spec))
        stabilizer = eisermann_h2(spec)
        presentation = ClauwensGroup(spec).coker_invariants
        assert chain == stabilizer == presentation

    def test_known_nontrivial(self):
        spec = AlexanderModuleSpec.scalar((3, 3), -1)
        assert eisermann_h2(spec) == Z(0, 3)
        spec55 = AlexanderModuleSpec.scalar((5, 5), -1)
        assert eisermann_h2(spec55) == Z(0, 5)


class TestBarChain:
    """Bar chains are dicts {tuple: coeff}; the degree is the tuple length."""

    def test_bar_boundary_squares_to_zero(self):
        g = named_group("s3")
        for tup in [(1, 2), (3, 4), (1, 2, 3), (5, 4, 2), (1, 2, 3, 4)]:
            once = bar_boundary({tup: 1}, g.mul)
            twice = bar_boundary(once, g.mul)
            assert twice == {}, tup

    def test_degree_one_boundary_vanishes(self):
        g = named_group("cyclic:4")
        assert bar_boundary({(2,): 5}, g.mul) == {}


# the bench's homotopy inputs beside the suite's
HOMOTOPY_SPECS = homotopy_suite_specs() + [
    grid_by_key()[f"alexander:{key}"].alexander_spec
    for key in ("2,2,2:frob", "13:t-1", "3,3:rot", "7:t3")
]


def chain_difference(a: dict, b: dict) -> dict:
    """a - b as a chain, a's terms first, without zero terms."""
    out = dict(a)
    for tup, c in b.items():
        out[tup] = out.get(tup, 0) - c
    return {tup: c for tup, c in out.items() if c}


def degree_3_triple(i, n):
    """Position i of the degree-3 walk: y, then z, then x."""
    yz, x = divmod(i, n)
    return (x, *divmod(yz, n))


def walk_tuple(degree, n):
    """The tuples at positions of the degree-k walk, ints or arrays."""
    return (lambda i: divmod(i, n)) if degree == 2 else (lambda i: degree_3_triple(i, n))


def dict_loop_failure(v, degree, walk=None):
    """The IdentityFailed a plain loop over the dict view raises, or None.

    Degree 2 walks the pairs x first; degree 3 walks the triples y, z, x,
    then c3 on (x, x, z).  Given `walk`, only those positions of the first
    walk are looked at.
    """
    n = v.spec.size
    for i in walk if walk is not None else range(n**degree):
        if degree == 2:
            (x, y) = tup = divmod(i, n)
            r = v.residual_2(x, y)
            if r:
                return IdentityFailed("degree-2 homotopy identity", tup, r)
            continue
        x, y, z = degree_3_triple(i, n)
        r, expected = v.residual_3(x, y, z), v.residual_3_template(y, z)
        if r != expected:
            return IdentityFailed(
                "degree-3 residual differs from its closed form", (x, y, z),
                chain_difference(r, expected),
            )
    if walk is not None or degree == 2:
        return None
    for x, z in product(range(n), repeat=2):
        c = v.c3(x, x, z)
        if c:
            return IdentityFailed("c3 on repeated arguments", (x, x, z), c)
    return None


def block_chain(v, table, args, boundary=False) -> dict:
    """The columns the block check sums for one tuple, decoded to a chain:
    the tuple is the middle row of a block of three, the others seeded."""
    size, coker = v.spec.size, v.model.coker_order

    def element(code):
        nx, alpha = divmod(code, coker)
        return ClauwensElement(*divmod(nx, size), alpha)

    program = adjoint._compile(v.t, len(args), ((1, table, tuple(range(len(args))), boundary),))
    rng = random.Random(str(args))
    block = tuple(np.array([rng.randrange(size), a, rng.randrange(size)]) for a in args)
    codes = v._entries(program, block)[1]
    chain = {}
    for column, c in zip(program.columns.T.tolist(), program.coeffs.tolist()):
        key = tuple(element(codes[e]) for e in column)
        chain[key] = chain.get(key, 0) + c
    return {tup: c for tup, c in chain.items() if c}


def flip_term(monkeypatch, name, index=0):
    """Replace the table adjoint.<name> by one with its index-th term negated."""
    table = getattr(adjoint, name)
    terms = list(table.terms)
    coeff, entries = terms[index]
    terms[index] = (-coeff, entries)
    monkeypatch.setattr(adjoint, name, table._replace(terms=tuple(terms)))


def small_blocks(monkeypatch, v, degree, rows):
    """Walk the degree-k residual of v in blocks of `rows` tuples; for
    degree 3 and rows <= n the first block holds only tuples (x, 0, 0)."""
    width = len(adjoint._compile(v.t, degree, adjoint._residual_parts(degree, v.t)).coeffs)
    monkeypatch.setattr(adjoint, "BLOCK_TERMS", rows * width)


def assert_fails_where_the_dict_loop_does(v, degree, rng):
    """The check of v fails as the dict loop does, on the whole walk and
    from three seeded positions on, across block boundaries."""
    expected = dict_loop_failure(v, degree)
    assert expected is not None
    with pytest.raises(IdentityFailed) as exc:
        v.degree_2() if degree == 2 else v.degree_3()
    assert exc.value.tuple == expected.tuple
    assert str(exc.value) == str(expected)
    n = v.spec.size
    parts = adjoint._residual_parts(degree, v.t)
    for start in sorted(rng.sample(range(1, n**degree), 3)):
        walk = range(start, n**degree)
        at = v._first_failure(parts, walk, walk_tuple(degree, n))
        expected = dict_loop_failure(v, degree, walk)
        if expected is None:
            assert at is None
        else:
            assert (divmod(at, n) if degree == 2 else degree_3_triple(at, n)) == expected.tuple
    return exc.value


def corrupt_power(v, rng):
    """v with one seeded e_u^j (0 < j < t, u != 0) made wrong in x."""
    return wrong_power(v, rng.randrange(1, v.t), rng.randrange(1, v.spec.size))


def wrong_power(v, j, u):
    """v with e_u^j made wrong in x, in _pow_x and in the code table that
    __init__ builds from it."""
    x = (v._pow_x[j, u] + 1) % v.spec.size
    v._pow_codes[j, u] += (x - v._pow_x[j, u]) * v.model.coker_order
    v._pow_x[j, u] = x
    return v


FIB22 = AlexanderModuleSpec((2, 2), [[0, 1], [1, 1]])  # type 3
Z5T2 = AlexanderModuleSpec.scalar((5,), 2)  # type 4


class TestHomotopyIdentities:
    @pytest.mark.parametrize("spec", HOMOTOPY_SPECS, ids=lambda s: s.label())
    def test_degree_2_exact(self, spec):
        report = verify_homotopy_2(spec)
        assert report.status == "pass"
        assert report.tuples_checked == spec.size**2

    @pytest.mark.parametrize("spec", HOMOTOPY_SPECS, ids=lambda s: s.label())
    def test_degree_3_residual(self, spec):
        report = verify_homotopy_3(spec)
        assert report.status == "pass"
        assert report.tuples_checked == spec.size**3

    def test_residual_independent_of_first_argument_directly(self):
        spec = AlexanderModuleSpec.scalar((5,), 2)
        v = HomotopyVerifier(spec)
        base = v.residual_3(0, 1, 2)
        for x in range(1, 5):
            assert v.residual_3(x, 1, 2) == base

    def test_corrupted_homotopy_detected(self, monkeypatch):
        """Mutation check: flipping the first term of the h3 table must break
        the identity, at the first failing triple of the walk."""
        flip_term(monkeypatch, "H3")
        v = HomotopyVerifier(AlexanderModuleSpec.scalar((3,), -1))
        expected = dict_loop_failure(v, 3)
        assert expected is not None
        with pytest.raises(IdentityFailed) as exc:
            v.degree_3()
        assert exc.value.tuple == expected.tuple
        assert str(exc.value) == str(expected)

    @pytest.mark.parametrize("spec", [FIB22, Z5T2], ids=lambda s: s.label())
    @pytest.mark.parametrize(
        "degree,name",
        [(2, "C2"), (2, "H1"), (2, "H2"), (3, "C3"), (3, "H2"), (3, "H3"), (3, "TEMPLATE")],
    )
    def test_flipped_term_fails_where_the_dict_loop_does(self, monkeypatch, spec, degree, name):
        rng = random.Random(f"{name}:{spec.label()}")
        flip_term(monkeypatch, name, rng.randrange(len(getattr(adjoint, name).terms)))
        assert_fails_where_the_dict_loop_does(HomotopyVerifier(spec), degree, rng)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_corrupted_power_fails_where_the_dict_loop_does(self, degree):
        # one wrong e_u^j, read by both views, breaks the identity past the walk's start
        v = corrupt_power(HomotopyVerifier(Z5T2), random.Random(degree))
        assert any(assert_fails_where_the_dict_loop_does(v, degree, random.Random(degree)).tuple)

    @pytest.mark.parametrize("name", ["C2", "C3", "H1", "H2", "H3", "TEMPLATE"])
    def test_block_terms_are_the_dict_chains(self, name):
        v = HomotopyVerifier(Z5T2)
        table = getattr(adjoint, name)
        rng = random.Random(name)
        for _ in range(5):
            args = tuple(rng.randrange(5) for _ in range({1: 1, 3: 2}.get(len(table.names), 3)))
            chain = v._table_at(table, *args)
            assert block_chain(v, table, args) == chain
            assert block_chain(v, table, args, boundary=True) == bar_boundary(chain, v.model.mul)

    def test_a_face_without_the_power_is_counted_per_power(self):
        # the last face of (e_x, e_y, e_z, e_A^j) drops e_A^j: it is met once per j
        v = HomotopyVerifier(Z5T2)
        table = adjoint.ChainTable(adjoint.H3.names, ((1, ("x", "y", "z", "A^j")),))
        e = v.model.e
        chain = block_chain(v, table, (1, 2, 4), boundary=True)
        assert chain[e(1), e(2), e(4)] == v.t - 1 == 3
        assert chain == bar_boundary(v._table_at(table, 1, 2, 4), v.model.mul)

    def test_wide_keys_never_wrap(self):
        # admitted by the default cap: n = 81, type 2, |coker mu| = 729, so an
        # element code is below 5 * 81 * 729 and a triple of them needs 54.5 bits
        spec = AlexanderModuleSpec.scalar((3, 3, 3, 3), -1)
        v = HomotopyVerifier(spec)
        assert (v.t, v.model.coker_order, v._radix) == (2, 729, 5 * 81 * 729)
        # the guard packs a triple in one key; a block's row index beside it
        # would pass 2^62, so each row is sorted on its own
        assert v._digits_per_key == 3
        parts = adjoint._residual_parts(3, v.t)
        rows = adjoint.BLOCK_TERMS // len(adjoint._compile(v.t, 3, parts).coeffs)
        assert v._radix**3 * rows > 2**62
        # two blocks of the walk, whole and with one wrong e_u, against the
        # dict view, on one packed key and on the column sort of three
        walk = range(rows * 1000, rows * 1002)
        broken = HomotopyVerifier(spec)
        u = random.Random(81).randrange(81)
        wrong_power(broken, 1, u)
        expected = dict_loop_failure(broken, 3, walk)
        assert expected is not None and expected.tuple != degree_3_triple(walk.start, 81)
        for per_key in (3, 1):
            broken._digits_per_key = v._digits_per_key = per_key
            triple = walk_tuple(3, 81)
            assert v._first_failure(parts, walk, triple) is None
            at = broken._first_failure(parts, walk, triple)
            assert degree_3_triple(at, 81) == expected.tuple

    def test_key_digits(self):
        assert adjoint._key_digits(2) == 62
        assert adjoint._key_digits(5 * 81 * 729) == 3
        # a connected module of order 2048 and type 2047, (Z/2)^11 with T of
        # order 2047, codes its elements below 4095 * 2048 * |coker mu|
        assert adjoint._key_digits(4095 * 2048) == 2
        assert adjoint._key_digits(2**62) == 1

    def test_column_sort_certifies_the_suite(self):
        for spec in homotopy_suite_specs():
            v = HomotopyVerifier(spec)
            v._digits_per_key = 1
            assert v.degree_2().tuples_checked == spec.size**2
            assert v.degree_3().tuples_checked == spec.size**3

    def test_c3_vanishes_on_repeated_arguments(self):
        spec = AlexanderModuleSpec((2, 2), [[0, 1], [1, 1]])
        v = HomotopyVerifier(spec)
        for x in range(4):
            for z in range(4):
                assert v.c3(x, x, z) == {}


class TestTemplateBlocks:
    """Later blocks checked against the cancellation pattern of sorted rows,
    on walks cut into blocks of one to three tuples."""

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("spec", [FIB22, Z5T2], ids=lambda s: s.label())
    @pytest.mark.parametrize(
        "degree,name",
        [(2, "C2"), (2, "H1"), (2, "H2"), (3, "C3"), (3, "H2"), (3, "H3"), (3, "TEMPLATE"),
         (2, "power"), (3, "power")],
    )
    def test_mutants_fail_where_the_dict_loop_does(self, monkeypatch, spec, degree, name, rows):
        rng = random.Random(f"{name}:{spec.label()}")
        if name != "power":
            flip_term(monkeypatch, name, rng.randrange(len(getattr(adjoint, name).terms)))
        v = HomotopyVerifier(spec)
        if name == "power":
            corrupt_power(v, rng)
        small_blocks(monkeypatch, v, degree, rows)
        assert_fails_where_the_dict_loop_does(v, degree, rng)

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("spec", [FIB22, Z5T2], ids=lambda s: s.label())
    def test_a_passing_check_sorts_fewer_rows_than_it_walks(self, monkeypatch, spec, rows):
        sorted_rows, distinct = [], []
        sort, template = adjoint._first_unbalanced_row, adjoint._template

        def sort_spy(keys, coeffs):
            sorted_rows.append(keys.shape[1])
            return sort(keys, coeffs)

        def template_spy(*args):
            found = template(*args)
            distinct.append(found[0])
            return found

        monkeypatch.setattr(adjoint, "_first_unbalanced_row", sort_spy)
        monkeypatch.setattr(adjoint, "_template", template_spy)
        v = HomotopyVerifier(spec)
        n = spec.size
        small_blocks(monkeypatch, v, 3, rows)
        parts = adjoint._residual_parts(3, v.t)
        assert v._first_failure(parts, range(n**3), walk_tuple(3, n)) is None
        # the first block, all (x, 0, 0), is sorted whole; of the later
        # rows, only those that miss the template
        assert sorted_rows[0] == rows and sum(sorted_rows) < n**3 // 4
        # the degenerate first block gives a coarse template, which a later
        # sorted row with more distinct keys replaced; kept, it made most
        # later rows miss and be sorted, past the bound above
        assert distinct[0] < max(distinct)

    @pytest.mark.parametrize("spec", HOMOTOPY_SPECS, ids=lambda s: s.label())
    @pytest.mark.parametrize("degree", [2, 3])
    def test_every_row_the_template_admits_cancels(self, spec, degree):
        # read a template from random tuples, then code each entry by its
        # class under the template's pairs: the row with the fewest equal
        # codes that passes the template.  Every other passing row merges
        # its runs further, so it cancels if this one does.
        v = HomotopyVerifier(spec)
        program = adjoint._compile(v.t, degree, adjoint._residual_parts(degree, v.t))
        rng = np.random.default_rng(degree)
        codes = v._entries(program, list(rng.integers(spec.size, size=(degree, 16))))
        keys = codes[:, program.columns].transpose(1, 0, 2)
        bad, order, new = adjoint._first_unbalanced_row(keys, program.coeffs)
        assert bad is None
        count, a, b = adjoint._template(program.columns, order, new)
        # the row it was read from passes it
        assert count == new.sum(axis=1).max() and (codes[:, a] == codes[:, b]).all(axis=1).any()
        label = list(range(codes.shape[1]))

        def find(e):
            while label[e] != e:
                e = label[e]
            return e

        for x, y in zip(a.tolist(), b.tolist()):
            label[find(x)] = find(y)
        classes = np.array([find(e) for e in range(len(label))])
        finest = classes[program.columns][:, None, :]
        assert adjoint._first_unbalanced_row(finest, program.coeffs)[0] is None

    def test_a_single_block_reads_no_template(self, monkeypatch):
        monkeypatch.setattr(adjoint, "_template", None)
        for spec in (FIB22, Z5T2):
            v = HomotopyVerifier(spec)
            assert v.degree_2().tuples_checked == spec.size**2


# the tables each degree's residual reads
RESIDUAL_TABLES = {2: ("C2", "H1", "H2"), 3: ("C3", "H2", "H3", "TEMPLATE")}


class TestCompiledPrograms:
    """The residuals compiled once per type, columns that cancel by
    construction dropped, against the dict chains and the term tables."""

    @pytest.mark.parametrize("degree,widths", [(2, [8, 32, 56, 68]), (3, [46, 138, 230, 276])])
    def test_literal_cancellation_halves_the_columns(self, degree, widths):
        # the term tables write 2 + 18 (t - 1) and 12 + 78 (t - 1) columns
        types = [2, 4, 6, 7]
        parts = [adjoint._residual_parts(degree, t) for t in types]
        literal = [sum(1 for _ in adjoint._literal_columns(t, p)) for t, p in zip(types, parts)]
        assert literal == ([20, 56, 92, 110] if degree == 2 else [90, 246, 402, 480])
        assert [len(adjoint._compile(t, degree, p).coeffs) for t, p in zip(types, parts)] == widths

    @pytest.mark.parametrize("degree", [2, 3])
    @pytest.mark.parametrize("t", range(1, 13))
    def test_dropped_columns_sum_to_zero(self, degree, t):
        parts = adjoint._residual_parts(degree, t)
        program = adjoint._compile(t, degree, parts)
        # the program's columns read back as words, powers and products
        words = list(range(degree))
        for a, b in program.words:
            words.append((words[a], words[b]))
        plain = [(p, words[w]) for p, w in program.plain.T.tolist()]
        (p, w), (r, v) = program.factors.tolist()
        products = [((a, words[b]), (c, words[d])) for a, b, c, d in zip(p, w, r, v)]
        entries = plain + products
        kept = {tuple(entries[e] for e in column): c
                for column, c in zip(program.columns.T.tolist(), program.coeffs.tolist())}
        assert len(kept) == len(program.coeffs) and 0 not in kept.values()
        sums = {}
        for column, c in adjoint._literal_columns(t, parts):
            sums[column] = sums.get(column, 0) + c
        assert set(kept) <= set(sums)
        # every literal column the program drops has coefficients summing to zero
        assert all(kept.get(column, 0) == c for column, c in sums.items())

    @pytest.mark.parametrize("t", range(1, 13))
    def test_homotopy_terms_bound_the_columns_built(self, t):
        repeated = len(adjoint._compile(t, 3, ((1, adjoint.C3, (0, 0, 2), False),)).coeffs)
        for n in (3, 7, 25):
            width = {k: len(adjoint._compile(t, k, adjoint._residual_parts(k, t)).coeffs)
                     for k in (2, 3)}
            assert n**2 * width[2] <= adjoint.homotopy_terms(2, n, t)
            assert n**3 * width[3] + n**2 * repeated <= adjoint.homotopy_terms(3, n, t)

    @pytest.mark.parametrize("spec", [FIB22, Z5T2], ids=lambda s: s.label())
    @pytest.mark.parametrize("degree", [2, 3])
    def test_program_at_one_tuple_is_the_dict_residual(self, spec, degree):
        v = HomotopyVerifier(spec)
        parts = adjoint._residual_parts(degree, v.t)
        for tup in product(range(spec.size), repeat=degree):
            assert v._chain_at(parts, *tup) == {}
            if degree == 2:
                assert v.residual_2(*tup) == {}
            else:
                assert v.residual_3(*tup) == v.residual_3_template(*tup[1:])

    @pytest.mark.parametrize("spec", [FIB22, Z5T2], ids=lambda s: s.label())
    @pytest.mark.parametrize("degree", [2, 3])
    def test_program_at_one_tuple_on_every_flipped_term(self, monkeypatch, spec, degree):
        n = spec.size
        for name in RESIDUAL_TABLES[degree]:
            for index in range(len(getattr(adjoint, name).terms)):
                with monkeypatch.context() as patch:
                    flip_term(patch, name, index)
                    v = HomotopyVerifier(spec)
                    expected = dict_loop_failure(v, degree, range(n**degree))
                    assert expected is not None, (name, index)
                    got = v._chain_at(adjoint._residual_parts(degree, v.t), *expected.tuple)
                    assert got == expected.difference != {}


class TestGroupH2Bar:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("cyclic:2", Z()),
            ("cyclic:6", Z()),
            ("s3", Z()),
            ("q8", Z()),
            ("klein4", Z(0, 2)),
            ("dihedral:4", Z(0, 2)),
            ("dihedral:6", Z(0, 2)),
            ("s4", Z(0, 2)),
        ],
    )
    def test_schur_multipliers(self, name, expected):
        assert group_h2_bar(named_group(name)) == expected

    def test_alternating4(self):
        a4 = from_permutations(4, [(1, 2, 0, 3), (1, 0, 3, 2)], name="alt4")
        assert a4.order == 12
        assert group_h2_bar(a4) == Z(0, 2)

    def test_order_two_has_an_empty_d3(self, monkeypatch):
        # every face of (1, 1, 1) cancels or holds the identity: no terms
        seen = []

        def recorded(d_in, d_out):
            seen.append((d_in, d_out))
            return homology_at(d_in, d_out)

        monkeypatch.setattr(adjoint, "homology_at", recorded)
        assert group_h2_bar(named_group("cyclic:2")) == Z()
        ((d3, d2),) = seen
        assert d3 == SparseIntMatrix(1, 1) and d2.entries() == [(0, 0, 2)]

    def test_cap(self):
        big = named_group("cyclic:31")
        with pytest.raises(ValueError):
            group_h2_bar(big)
        assert BAR_GROUP_CAP == 30
        with pytest.raises(ValueError):
            group_h2_bar(named_group("cyclic:5"), cap=4)


class ReferenceModel:
    """The docstring product on coordinate tuples (n, x, a), written out:

        (n, x, a) * (m, y, b) = (n + m, T^m x + y, a + b + [T^m x (x) y]),

    with [u (x) v] reduced through a Smith form of the relation matrix of
    mu(u (x) v) = u (x) v - Tv (x) u computed here, not by the model.
    """

    def __init__(self, spec):
        self.spec = spec
        self.t = spec.t_order()
        orders = spec.torsion_orders
        k = len(orders)
        self.k = k
        unit = [tuple(int(a == i) for a in range(k)) for i in range(k)]
        columns = [
            [
                u - v
                for u, v in zip(
                    self.tensor(unit[i], unit[j]), self.tensor(spec.t_apply(unit[j]), unit[i])
                )
            ]
            for i in range(k)
            for j in range(k)
        ]
        columns += [
            [math.gcd(orders[i], orders[j]) * v for v in self.tensor(unit[i], unit[j])]
            for i in range(k)
            for j in range(k)
        ]
        dense = [list(row) for row in zip(*columns)]
        diag, U = checked_smith_form(dense)
        self.rows = [(U[p], d) for p, d in enumerate(diag) if d > 1]
        self.invariants = tuple(d for _, d in self.rows)
        self.identity = (0, spec.zero(), (0,) * len(self.rows))

    def tensor(self, u, v):
        return [u[i] * v[j] for i in range(self.k) for j in range(self.k)]

    def tensor_class(self, u, v):
        vec = self.tensor(u, v)
        return tuple(sum(r * c for r, c in zip(row, vec)) % d for row, d in self.rows)

    def coker_add(self, a, b):
        return tuple((u + v) % d for u, v, d in zip(a, b, self.invariants))

    def t_power(self, v, m):
        for _ in range(m % self.t):
            v = self.spec.t_apply(v)
        return v

    def mul(self, g, h):
        (n, x, a), (m, y, b) = g, h
        tx = self.t_power(x, m)
        alpha = self.coker_add(self.coker_add(a, b), self.tensor_class(tx, y))
        return (n + m, self.spec.add(tx, y), alpha)

    def inv(self, g):
        n, x, a = g
        tx = self.t_power(x, -n)
        y = self.spec.neg(tx)
        total = self.coker_add(a, self.tensor_class(tx, y))
        return (-n, y, tuple((-v) % d for v, d in zip(total, self.invariants)))

    def act(self, v, g):
        n, x, _ = g
        spec = self.spec
        image = spec.add(self.t_power(spec.coords(v), n), spec.sub(x, spec.t_apply(x)))
        return spec.index(image)

    def encode(self, g):
        n, x, a = g
        code, place = 0, 1
        for digit, d in zip(a, self.invariants):
            code += digit * place
            place *= d
        return ClauwensElement(n, self.spec.index(x), code)

    def elements(self):
        return st.tuples(
            st.integers(-3 * self.t, 3 * self.t),
            st.tuples(*(st.integers(0, d - 1) for d in self.spec.torsion_orders)),
            st.tuples(*(st.integers(0, d - 1) for d in self.invariants)),
        )


REFERENCE_SPECS = connected_alexander_specs(max_order=27)


@functools.lru_cache(maxsize=None)
def reference_and_model(spec):
    return ReferenceModel(spec), ClauwensGroup(spec)


# sha256 of repr([(rows, cols, entries, diag, U), ...]) over REFERENCE_SPECS
# in order: each relation matrix of mu that smith_normal_form is given in
# ClauwensGroup, and the diagonal and transform it returns; recorded when the
# matrix was filled one cell at a time, so building it from terms and the
# array layout change neither the matrix nor its Smith form
RELATION_SMITH_FORMS_SHA256 = "e9090230e07e9847ae7977f83494b701e8431c4081071e00312e4e36e8cb3d66"


def test_relation_smith_forms_are_unchanged(monkeypatch):
    seen = []

    def recorded(m):
        diag, u = smith_normal_form(m)
        seen.append((m.rows, m.cols, m.entries(), diag, u))
        return diag, u

    monkeypatch.setattr(adjoint, "smith_normal_form", recorded)
    for spec in REFERENCE_SPECS:
        ClauwensGroup(spec)
    assert len(seen) == len(REFERENCE_SPECS) == 18
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == RELATION_SMITH_FORMS_SHA256


class TestReferenceFormula:
    def test_covers_rank_three_cokernel(self):
        assert any(len(reference_and_model(s)[0].invariants) == 3 for s in REFERENCE_SPECS)

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.label())
    def test_same_cokernel(self, spec):
        ref, model = reference_and_model(spec)
        assert model.coker_invariants == Z(0, *ref.invariants)

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.label())
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mul_inv_act_match(self, spec, data):
        ref, model = reference_and_model(spec)
        g, h = data.draw(ref.elements()), data.draw(ref.elements())
        v = data.draw(st.integers(0, spec.size - 1))
        assert ref.mul(g, ref.inv(g)) == ref.identity == ref.mul(ref.inv(g), g)
        assert model.mul(ref.encode(g), ref.encode(h)) == ref.encode(ref.mul(g, h))
        assert model.inv(ref.encode(g)) == ref.encode(ref.inv(g))
        assert model.act_index(v, ref.encode(g)) == ref.act(v, g)

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.label())
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_associative(self, spec, data):
        ref, model = reference_and_model(spec)
        a, b, c = (ref.encode(data.draw(ref.elements())) for _ in range(3))
        assert model.mul(model.mul(a, b), c) == model.mul(a, model.mul(b, c))


# ---------------------------------------------------------------------------
# the element-at-a-time checks the model ran before its checks read the
# tables as arrays, kept as oracles for the array versions


def reference_verify(model, sample_limit=6):
    n = model.spec.size
    quandle = model.quandle
    for x in range(n):
        for y in range(n):
            lhs = model.e(quandle.apply(x, y))
            ey = model.e(y)
            rhs = model.mul(model.mul(model.inv(ey), model.e(x)), ey)
            if lhs != rhs:
                raise AssertionError(f"relation fails at ({x}, {y})")
            if model.act_index(x, ey) != quandle.apply(x, y):
                raise AssertionError(f"action mismatch at ({x}, {y})")
    gens = [model.e(x) for x in range(min(n, sample_limit))]
    gens.append(model.inv(model.e(0)))
    for a in gens:
        b = model.inv(a)
        if model.mul(a, b) != model.identity or model.mul(b, a) != model.identity:
            raise AssertionError("inverse fails")
        for c in gens:
            for d in gens:
                if model.mul(model.mul(a, c), d) != model.mul(a, model.mul(c, d)):
                    raise AssertionError("associativity fails")
    return True


def reference_kernel(model):
    t = model.type
    found = [
        ClauwensElement(m, x, alpha)
        for m in range(-2 * t, 2 * t + 1)
        for x in model.spec.elements()
        for alpha in range(model.coker_order)
        if all(model.act_index(v, ClauwensElement(m, x, alpha)) == v for v in model.spec.elements())
    ]
    expected = {
        (m, 0, alpha)
        for m in range(-2 * t, 2 * t + 1)
        if m % t == 0
        for alpha in range(model.coker_order)
    }
    if set(found) != expected:
        raise AssertionError("action kernel does not have the product shape")
    return t, model.coker_invariants


def reference_central_power(model):
    elements = model.spec.elements()
    powers = set()
    for x in elements:
        power = model.identity
        for _ in range(model.type):
            power = model.mul(power, model.e(x))
        powers.add(power)
    if len(powers) != 1:
        return False
    z = next(iter(powers))
    return all(model.mul(z, model.e(y)) == model.mul(model.e(y), z) for y in elements)


def reference_mul(model):
    """The scalar product on list views of the model's tables, which mul
    was before it became a wrapper over mul_array."""
    t_pow = model.t_pow.tolist()
    add, tensor, coker_add = (
        t.ravel().tolist() for t in (model.add_table, model.tensor, model.coker_add)
    )
    size, c = model.spec.size, model.coker_order

    def mul(g, h):
        n, x, a = g
        m, y, b = h
        i = t_pow[m % model.type][x] * size + y
        alpha = coker_add[coker_add[a * c + b] * c + tensor[i]]
        return ClauwensElement(n + m, add[i], alpha)

    return mul


def outcome(check, model):
    try:
        return check(model)
    except AssertionError as exc:
        return str(exc)


# each array the model keeps and the range of its entries
TABLES = {
    "t_pow": "size",
    "add_table": "size",
    "neg_table": "size",
    "one_minus_t": "size",
    "tensor": "coker",
    "coker_add": "coker",
    "coker_neg": "coker",
}


def corrupted(spec, name, cell):
    """A model with one cell of one table moved to another value in range."""
    model = ClauwensGroup(spec)
    bound = spec.size if TABLES[name] == "size" else model.coker_order
    table = getattr(model, name).copy()
    table.flat[cell] = (table.flat[cell] + 1) % bound
    setattr(model, name, table)
    return model


class TestArrayChecksAgainstReferences:
    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.label())
    def test_checks_match(self, spec):
        model = ClauwensGroup(spec)
        assert model.verify() is reference_verify(model) is True
        assert model.kernel() == reference_kernel(model)
        assert model.central_power() is reference_central_power(model) is True

    @pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: s.label())
    def test_array_forms_match_the_scalar_ones(self, spec):
        model = ClauwensGroup(spec)
        rng = random.Random(spec.label())
        t, n, c = model.type, spec.size, model.coker_order
        sample = [
            ClauwensElement(rng.randint(-2 * t, 2 * t), rng.randrange(n), rng.randrange(c))
            for _ in range(60)
        ]
        g = tuple(np.array(column) for column in zip(*sample))
        products = model.mul_array(tuple(v[:, None] for v in g), tuple(v[None, :] for v in g))
        mul = reference_mul(model)
        expected = [[mul(a, b) for b in sample] for a in sample]
        assert np.array_equal(np.stack(np.broadcast_arrays(*products), axis=-1), expected)
        assert [[model.mul(a, b) for b in sample] for a in sample] == expected
        assert np.array_equal(np.stack(model.inv_array(g), axis=-1), [model.inv(a) for a in sample])
        assert [model.mul(a, model.inv(a)) for a in sample] == [model.identity] * len(sample)
        images = model.act_array(np.arange(n)[:, None], g)
        assert images.T.tolist() == [[model.act_index(v, a) for v in range(n)] for a in sample]

    @pytest.mark.parametrize(
        "spec",
        [AlexanderModuleSpec.scalar((3, 3), -1), AlexanderModuleSpec.scalar((5,), 2),
         AlexanderModuleSpec.scalar((9,), 2)],
        ids=lambda s: s.label(),
    )
    def test_corrupted_cell_gives_the_same_message(self, spec, monkeypatch):
        # blocks of two rows, so that the first failure is found across blocks
        monkeypatch.setattr(perms, "BLOCK_CELLS", 2 * spec.size)
        outcomes = set()
        for name in TABLES:
            size = getattr(ClauwensGroup(spec), name).size
            for cell in range(size):
                model = corrupted(spec, name, cell)
                for check, reference in (
                    (ClauwensGroup.verify, reference_verify),
                    (ClauwensGroup.kernel, reference_kernel),
                    (ClauwensGroup.central_power, reference_central_power),
                ):
                    result = outcome(check, model)
                    assert result == outcome(reference, model), (name, cell, check.__name__)
                    outcomes.add(result.split(" at ")[0] if isinstance(result, str) else result)
        # every kind of failure the checks report is reached
        assert outcomes >= {
            "relation fails",
            "action mismatch",
            "associativity fails",
            "action kernel does not have the product shape",
            False,
        }
