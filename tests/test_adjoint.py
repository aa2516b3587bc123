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
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import families, perms
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
from quandles.groups import from_permutations, named_group
from quandles.homology import quandle_h2
from quandles.intlin import AbelianGroupInvariants, SparseIntMatrix, smith_normal_form

from alexander_specs import connected_alexander_specs, homotopy_suite_specs
from child_memory import child_peaks_kb


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

    def test_homotopy_checks_multiply_each_distinct_pair_once(self, monkeypatch):
        # the verifier called mul 66,794 times here on its 182 distinct pairs
        calls = []
        mul = ClauwensGroup.mul

        def counted(self, g, h):
            calls.append((g, h))
            return mul(self, g, h)

        monkeypatch.setattr(ClauwensGroup, "mul", counted)
        verifier = HomotopyVerifier(AlexanderModuleSpec.scalar((13,), -1))
        verifier.degree_2()
        verifier.degree_3()
        assert len(calls) == len(set(calls)) <= 182

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


class TestHomotopyIdentities:
    @pytest.mark.parametrize("spec", homotopy_suite_specs(), ids=lambda s: s.label())
    def test_degree_2_exact(self, spec):
        report = verify_homotopy_2(spec)
        assert report.status == "pass"
        assert report.tuples_checked == spec.size**2

    @pytest.mark.parametrize("spec", homotopy_suite_specs(), ids=lambda s: s.label())
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

    def test_corrupted_homotopy_detected(self):
        """Mutation check: flipping one term of h3 must break the identity."""
        spec = AlexanderModuleSpec.scalar((3,), -1)

        class Corrupted(HomotopyVerifier):
            def h3(self, x, y, z):
                good = HomotopyVerifier.h3(self, x, y, z)
                if not good:
                    return good
                tup, coeff = next(iter(good.items()))
                return {**good, tup: -coeff}

        v = Corrupted(spec)
        broken = any(
            v.residual_3(x, y, z) != v.residual_3_template(y, z)
            for x in range(3)
            for y in range(3)
            for z in range(3)
        )
        assert broken

    def test_c3_vanishes_on_repeated_arguments(self):
        spec = AlexanderModuleSpec((2, 2), [[0, 1], [1, 1]])
        v = HomotopyVerifier(spec)
        for x in range(4):
            for z in range(4):
                assert v.c3(x, x, z) == {}


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
        diag, U, _ = smith_normal_form(SparseIntMatrix.from_dense(dense), transforms=True)
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
