"""Quandle family constructors.

Oracles: axiom validation (done inside every constructor), frozen orders
and types, the connectivity criterion cross-checked against orbit
computation, and order formulas for the linear-algebraic families.
"""

import hashlib
from itertools import product
from math import prod
from types import SimpleNamespace

import pytest

from quandles import families, perms
from quandles.families import (
    AlexanderModuleSpec,
    EvenCharacteristic,
    NonInvertibleT,
    SeedNotInvolution,
)
from quandles.fields import FiniteField
from quandles.core import dump_table
from quandles.grid import CATALOGUE, parse_family, standard_grid
from quandles.groups import coxeter_generators


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


# sha256 of dump_table(quandle) and of its labels joined by newlines, for
# every symplectic and spherical catalogue row plus four larger tables (two
# over fields of degree 2 not in the catalogue); frozen from the
# per-element polynomial arithmetic the array builders replaced
FROZEN_VECTOR_TABLES = [
    (
        "symplectic g=1 q=2",
        "2340c125c6500d2b63e4ad46853e07f5e73d8de51d021a8bb060e5258fea53f9",
        "92036c0d83b731b8ca02e5845f9b5825ee43ed0c2545044ea8f9bfd8e76ff98d",
    ),
    (
        "symplectic g=1 q=3",
        "539be7520818587886a6c6f51677a69f0166ec37fb928adaec040022e4a2dbd3",
        "0e4ceeb5edf2c353ba366175a3d3f5f29ae6762688953159044951b11ca3ab24",
    ),
    (
        "symplectic g=1 q=4",
        "e0b9b6193d896d58d15d77f900608c5d9851c08a9d254a702c8a9bf567507cec",
        "f12db823d5dcd021ea2a10c0babecfd47d39135dc541c3afdccdd9f061f86d42",
    ),
    (
        "symplectic g=1 q=5",
        "8a35ea16dde8e2fea496ab39dd2f857bb11b0ec9cbc0082fc823037b81dfe80b",
        "365c696fee2abec658d0056fb0c94f73cb6bd45d99d26b339a865d8c3341001d",
    ),
    (
        "symplectic g=1 q=7",
        "cb2276d28c6978feb8cc520af03d9a4a3b1c6612325fe0865978b715ada5f4b4",
        "69780c90ebd6ce820b31e2bc7016cb25ecd26c3ed2362e1cb8b58bd4524fedab",
    ),
    (
        "symplectic g=1 q=8",
        "e192f8234431b33db20de89b6cc30277ceb77647cbb99a9014d325a136781d67",
        "da2f1cbb6d92d0bb96b682ec94dca693898d4c1b375bc696f6b9a9df4747fdf3",
    ),
    (
        "symplectic g=2 q=2",
        "e25f787c7506f2546066445e525880397626de1fca59de71c26960eea317f0c5",
        "10a2c637ad84ce41a63365c5b589395ca67116c84576aae720c5725f34712af6",
    ),
    (
        "spherical n=2 q=3",
        "ad46943c4bc04c452d29084355b0093891a5e0198ddfa2ca6df0ca785ccd9b18",
        "09802ce9588d92eccf7f65bfd389d68106e688aba196629f1f53bb64ea7061c5",
    ),
    (
        "spherical n=2 q=5",
        "8338cca5c2bf0188d23a41b5f598d71fd801aa2e9a7353cb7d432a53a810fc04",
        "5c28a3169144e14236081e26c0aea51b258a142db1f8661b249fa2814f452a44",
    ),
    (
        "spherical n=2 q=7",
        "bcf243b2f7313649c43b451b3744eab0bfe9c50e5d7b35ac87f5a3f8216c5433",
        "a1192f6ae9c516a07c60909be228cbe37c72213951edc4f31b4b0ceb2f316770",
    ),
    (
        "spherical n=3 q=3",
        "2a40e7ed798bce0d695aff3b11905c574428ff3e33339c545e204131a7508c8e",
        "9a0f26649e8bad95628296be61780d9c376365222f6eedd849bcaa468bae355f",
    ),
    (
        "symplectic g=2 q=3",
        "e2f1d82e7702c104e56d6fd080654cc6840d5783d963c3da9d0d7dfb30c2e9d1",
        "421362bea30a9d30397b1da8b7282ad3fe738b7ab4f4b46820794169b7c8fc65",
    ),
    (
        "spherical n=3 q=5",
        "00323483785fa21fbfc53afe9d36056a6543c6bb482eb3865c0022d8bd758943",
        "a30a7ba772ff61ed5e1360301c9fd9a8ee4c868e6e79203c8315ac9a9ff9a645",
    ),
    (
        "symplectic g=1 q=9",
        "4a394b83376a27b84bd2d3fb8bb64a81356ab81eb55b98b00da2cbd2b340757b",
        "f972336f4d022304c8c2ba728ca268075700720658d8914becf94820f8f30a19",
    ),
    (
        "spherical n=2 q=9",
        "ae3696ca25cebbc1e2a77e83ab806b299f4e9d1abeddd4568bc7f02b39fd8ae5",
        "3fa91489215e1b935a5af2a146906e19697228884a7f261be76775556eb9bb9e",
    ),
]


def test_frozen_tables_cover_the_vector_catalogue_rows():
    frozen = {spec for spec, _table, _labels in FROZEN_VECTOR_TABLES}
    for _key, spec, _order in CATALOGUE:
        if spec.split()[0] in ("symplectic", "spherical"):
            assert spec in frozen


@pytest.mark.parametrize("spec,table_sha,labels_sha", FROZEN_VECTOR_TABLES)
def test_vector_family_tables_are_frozen(spec, table_sha, labels_sha):
    quandle = parse_family(spec.split()).build()
    assert hashlib.sha256(dump_table(quandle).encode()).hexdigest() == table_sha
    assert hashlib.sha256("\n".join(quandle.labels).encode()).hexdigest() == labels_sha


def _per_cell_reference(F, vecs, form, sign):
    """x <| y = form(x, y) y + sign x, one cell at a time with F's scalar methods."""
    index = {v: i for i, v in enumerate(vecs)}
    return [
        [
            index[tuple(F.add(F.mul(form(x, y), b), a if sign > 0 else F.neg(a)) for a, b in zip(x, y))]
            for y in vecs
        ]
        for x in vecs
    ]


@pytest.mark.parametrize("g,q", [(1, 4), (1, 9), (2, 2)])
def test_symplectic_matches_per_cell_reference(g, q):
    F = FiniteField.of(q)

    def form(x, y):
        s = 0
        for i in range(g):
            s = F.add(s, F.sub(F.mul(x[2 * i], y[2 * i + 1]), F.mul(x[2 * i + 1], y[2 * i])))
        return s

    vecs = list(product(range(q), repeat=2 * g))[1:]
    quandle = families.symplectic(g, F)
    assert [list(row) for row in quandle.table] == _per_cell_reference(F, vecs, form, 1)
    assert quandle.labels == tuple("(" + ",".join(map(str, v)) + ")" for v in vecs)


@pytest.mark.parametrize("n,q", [(2, 5), (2, 9), (3, 3)])
def test_spherical_matches_per_cell_reference(n, q):
    F = FiniteField.of(q)

    def dot(x, y):
        s = 0
        for a, b in zip(x, y):
            s = F.add(s, F.mul(a, b))
        return s

    vecs = [v for v in product(range(q), repeat=n + 1) if dot(v, v) == 1]
    quandle = families.spherical(n, F)
    reference = _per_cell_reference(F, vecs, lambda x, y: F.mul(F.embed(2), dot(x, y)), -1)
    assert [list(row) for row in quandle.table] == reference
    assert quandle.labels == tuple("(" + ",".join(map(str, v)) + ")" for v in vecs)


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
        from quandles.core import find_isomorphism
        from quandles.groups import cyclic

        assert find_isomorphism(families.core(cyclic(5)), families.dihedral(5)) is not None


def reference_conjugation_reflections(w, seeds):
    """conjugation_reflections as it was built on image tuples: the closure
    by a queue, and every table cell composed and looked up in a dict."""

    def conjugate(a, b):  # b^-1 a b
        return perms.compose(perms.compose(tuple(sorted(range(len(b)), key=b.__getitem__)), a), b)

    gens = [tuple(map(int, g)) for g in w.generators]
    seeds = [tuple(map(int, s)) for s in seeds]
    closure, queue = set(seeds), list(seeds)
    while queue:
        s = queue.pop(0)
        for g in gens:
            c = conjugate(s, g)
            if c not in closure:
                closure.add(c)
                queue.append(c)
    elems = sorted(closure)
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[conjugate(a, b)] for b in elems] for a in elems]
    return table, [perms.format_perm(p) for p in elems]


REFLECTION_LABELS = [f"A{n}" for n in range(2, 9)] + [f"I2({m})" for m in range(3, 41)]


class TestConjugationAndCoxeter:
    @pytest.mark.parametrize("label", REFLECTION_LABELS)
    def test_reflections_match_the_tuple_reference(self, label):
        _name, degree, gens = coxeter_generators(label)
        table, labels = reference_conjugation_reflections(perms.PermGroup(degree, gens), gens)
        q = families.coxeter_reflection_quandle(label)
        assert (q.array.tolist(), q.labels) == (table, tuple(labels))
        n = int(label[1:]) if label[0] == "A" else int(label[3:-1])
        assert q.order == (n * (n + 1) // 2 if label[0] == "A" else n)  # the count the cap reads

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
        from quandles.core import find_isomorphism

        assert find_isomorphism(
            families.coxeter_reflection_quandle("A2"), families.dihedral(3)
        ) is not None

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
