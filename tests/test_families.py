"""Quandle family constructors.

Oracles: axiom validation (done inside every constructor), frozen orders
and types, the connectivity criterion cross-checked against orbit
computation, and order formulas for the linear-algebraic families.
"""

from itertools import product
from math import prod
from types import SimpleNamespace

import pytest

from quandles import families
from quandles.families import (
    AlexanderModuleSpec,
    EvenCharacteristic,
    NonInvertibleT,
    SeedNotInvolution,
)
from quandles.fields import FiniteField
from quandles.grid import standard_grid


def _spec(orders, t):
    if isinstance(t, int):
        return AlexanderModuleSpec.scalar(orders, t)
    return AlexanderModuleSpec(orders, t)


class TestAlexanderModuleSpec:
    def test_mixed_radix_enumeration(self):
        spec = AlexanderModuleSpec((2, 3), [[1, 0], [0, 1]])
        seen = [spec.coords(i) for i in spec.elements()]
        # first coordinate least significant
        assert seen[0] == (0, 0)
        assert seen[1] == (1, 0)
        assert seen[2] == (0, 1)
        assert len(seen) == 6
        for i in spec.elements():
            assert spec.index(spec.coords(i)) == i

    def test_rejects_non_invertible(self):
        with pytest.raises(NonInvertibleT):
            AlexanderModuleSpec.scalar((4,), 2)
        with pytest.raises(NonInvertibleT):
            AlexanderModuleSpec((2, 2), [[1, 0], [0, 0]])

    def test_rejects_incompatible_matrix(self):
        # T must descend to Z/2 x Z/4: the (0,1) entry multiplies a Z/4
        # coordinate into a Z/2 one freely, but the (1,0) entry must kill 2
        with pytest.raises(ValueError):
            AlexanderModuleSpec((2, 4), [[1, 0], [1, 1]])

    def test_scalar_label_round_trip(self):
        spec = AlexanderModuleSpec.scalar((3, 3), -1)
        assert spec.t_matrix == ((2, 0), (0, 2))
        assert spec.label() == "alexander orders=3,3 t=2,0;0,2"

    @pytest.mark.parametrize(
        "orders,t,connected",
        [
            ((3,), -1, True),
            ((4,), -1, False),  # 1 - (-1) = 2 is not onto Z/4
            ((5,), 2, True),
            ((15,), 2, True),
            ((2, 2), [[0, 1], [1, 1]], True),
            ((2,), 1, False),  # identity T never connected beyond a point
        ],
    )
    def test_connectivity_criterion(self, orders, t, connected):
        spec = _spec(orders, t)
        assert spec.is_connected() == connected
        # oracle: orbit count of the built quandle
        q = families.alexander(spec)
        assert q.is_connected() == connected

    @pytest.mark.parametrize(
        "orders,t,t_order",
        [
            ((3,), -1, 2),
            ((5,), 2, 4),
            ((7,), 3, 6),
            ((9,), 2, 6),
            ((2, 2), [[0, 1], [1, 1]], 3),
            ((2, 2, 2), [[0, 0, 1], [1, 0, 1], [0, 1, 0]], 7),
        ],
    )
    def test_type_is_order_of_t(self, orders, t, t_order):
        spec = _spec(orders, t)
        assert spec.t_order() == t_order
        assert families.alexander(spec).type == t_order


class TestAlexander:
    def test_law(self):
        spec = AlexanderModuleSpec.scalar((5,), 2)
        q = families.alexander(spec)
        for x in range(5):
            for y in range(5):
                assert q.apply(x, y) == (y + 2 * (x - y)) % 5

    def test_dihedral_agrees_with_t_minus_one(self):
        for n in (1, 2, 3, 5, 8):
            spec = AlexanderModuleSpec.scalar((n,), -1)
            assert families.alexander(spec).table == families.dihedral(n).table


def _tuple_table(spec):
    """x <| y = y + T(x - y), one cell at a time with the tuple methods."""
    coords = [spec.coords(i) for i in spec.elements()]
    return tuple(
        tuple(spec.index(spec.add(cy, spec.t_apply(spec.sub(cx, cy)))) for cy in coords)
        for cx in coords
    )


def _tuple_t_order(spec):
    start = [spec.coords(i) for i in spec.elements()]
    current, m = [spec.t_apply(c) for c in start], 1
    while current != start:
        current, m = [spec.t_apply(c) for c in current], m + 1
    return m


def _tuple_connected(spec):
    return len({spec.one_minus_t(spec.coords(i)) for i in spec.elements()}) == spec.size


# x^8 + x^4 + x^3 + x^2 + 1 is primitive over F_2: its companion matrix has order 255
_LOW = [1, 0, 1, 1, 1, 0, 0, 0]
_COMPANION = [[int(i == j + 1) for j in range(7)] + [_LOW[i]] for i in range(8)]

_CATALOGUE_SPECS = sorted(
    {e.alexander_spec for e in standard_grid() if e.alexander_spec is not None},
    key=lambda s: s.label(),
)
_EXTRA_SPECS = [
    ((2, 4), [[1, 1], [2, 1]]),  # mixed orders, non-scalar T of order 4
    ((6,), 5),  # 1 - T = 2 is not onto Z/6
    ((2, 3), [[1, 0], [0, 2]]),  # 1 - T kills the Z/2 summand
    ((1,), 1),
]


class TestArrayPathAgainstTuples:
    """The spec's coordinate arrays and T permutation, read by `alexander`,
    t_order and is_connected, against the one-element tuple methods."""

    @pytest.mark.parametrize(
        "spec",
        _CATALOGUE_SPECS + [_spec(o, t) for o, t in _EXTRA_SPECS],
        ids=lambda s: s.label(),
    )
    def test_table_type_and_connectivity(self, spec):
        q = families.alexander(spec)
        assert q.table == _tuple_table(spec)
        assert q.labels == tuple(
            "(" + ",".join(str(v) for v in spec.coords(i)) + ")" for i in spec.elements()
        )
        assert spec.t_order() == _tuple_t_order(spec)
        assert spec.is_connected() == _tuple_connected(spec)
        images = [spec.index(spec.t_apply(spec.coords(i))) for i in spec.elements()]
        assert spec.t_perm.tolist() == images

    def test_every_catalogue_spec_is_compared(self):
        assert len(_CATALOGUE_SPECS) == 18

    def test_order_256_primitive_module(self):
        spec = AlexanderModuleSpec((2,) * 8, _COMPANION)
        assert spec.t_order() == _tuple_t_order(spec) == 255
        assert spec.is_connected() and _tuple_connected(spec)

    @pytest.mark.parametrize("orders", [(2, 4), (3, 3), (2, 2, 2)])
    def test_invertibility_against_tuple_images(self, orders):
        """Every T reduced by rows that descends: NonInvertibleT is raised
        exactly when the tuple images of T are not all distinct."""
        k, n = len(orders), prod(orders)
        raised = 0
        for flat in product(*(range(d) for d in orders for _ in range(k))):
            t = [flat[r * k : (r + 1) * k] for r in range(k)]
            plain = SimpleNamespace(torsion_orders=orders, t_matrix=t)
            images = {
                AlexanderModuleSpec.t_apply(plain, AlexanderModuleSpec.coords(plain, i))
                for i in range(n)
            }
            try:
                AlexanderModuleSpec(orders, t)
            except NonInvertibleT:
                raised += 1
                assert len(images) < n, t
            except ValueError:
                continue  # T does not descend to the module
            else:
                assert len(images) == n, t
        assert raised


class TestDihedralAndTrivial:
    def test_dihedral3_table(self):
        assert families.dihedral(3).table == ((0, 2, 1), (2, 1, 0), (1, 0, 2))

    def test_dihedral_law(self):
        q = families.dihedral(7)
        for x in range(7):
            for y in range(7):
                assert q.apply(x, y) == (2 * y - x) % 7

    def test_trivial(self):
        q = families.trivial(3)
        assert q.table == ((0, 0, 0), (1, 1, 1), (2, 2, 2))


class TestSymplectic:
    @pytest.mark.parametrize("g,q,order", [(1, 2, 3), (1, 3, 8), (1, 5, 24), (2, 2, 15)])
    def test_order_is_nonzero_vectors(self, g, q, order):
        quandle = families.symplectic(g, FiniteField.of(q))
        assert quandle.order == q ** (2 * g) - 1 == order

    def test_connected(self):
        assert families.symplectic(1, FiniteField.of(3)).is_connected()

    def test_translations_preserve_form(self):
        # each translation is a transvection: fixes its own vector
        q = 3
        field = FiniteField.of(q)
        quandle = families.symplectic(1, field)
        for x in range(quandle.order):
            assert quandle.apply(x, x) == x


class TestSpherical:
    @pytest.mark.parametrize("n,q,order", [(2, 3, 6), (2, 5, 30), (2, 7, 42), (3, 3, 24)])
    def test_unit_sphere_size(self, n, q, order):
        assert families.spherical(n, FiniteField.of(q)).order == order

    def test_even_characteristic_rejected(self):
        with pytest.raises(EvenCharacteristic):
            families.spherical(2, FiniteField.of(4))

    def test_involutive(self):
        # x <| y <| y = x: reflections are involutions, the type is 2
        s = families.spherical(2, FiniteField.of(5))
        assert s.type == 2


class TestCore:
    def test_core_law_is_involutive(self):
        from quandles.groups import named_group

        for name in ("cyclic:5", "s3", "q8"):
            q = families.core(named_group(name))
            assert q.type in (1, 2)
            for x in range(q.order):
                for y in range(q.order):
                    assert q.apply(q.apply(x, y), y) == x

    def test_core_of_cyclic_is_dihedral(self):
        from quandles.core import is_isomorphic
        from quandles.groups import cyclic

        assert is_isomorphic(families.core(cyclic(5)), families.dihedral(5))


class TestConjugationAndCoxeter:
    def test_coxeter_orders(self):
        for kind, order in [
            ("A2", 3),
            ("A3", 6),
            ("A4", 10),
            ("B2", 4),
            ("G2", 6),
            ("I2(5)", 5),
            ("I2(8)", 8),
        ]:
            assert families.coxeter_reflection_quandle(kind).order == order

    def test_a2_is_dihedral3(self):
        from quandles.core import is_isomorphic

        assert is_isomorphic(
            families.coxeter_reflection_quandle("A2"), families.dihedral(3)
        )

    def test_odd_dihedral_reflections_connected(self):
        assert families.coxeter_reflection_quandle("I2(5)").is_connected()
        # even case splits into two reflection classes
        assert len(families.coxeter_reflection_quandle("I2(8)").orbits()) == 2

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            families.coxeter_reflection_quandle("H3")

    def test_seed_must_be_involution(self):
        from quandles.perms import PermGroup

        w = PermGroup(3, [(1, 2, 0)])
        with pytest.raises(SeedNotInvolution):
            families.conjugation_reflections(w, [(1, 2, 0)])
