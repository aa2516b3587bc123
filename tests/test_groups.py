"""Finite group tables: axioms, named constructions, centers and element orders.

Oracles: hand-checked structure of the standard small groups (orders of
centers, commutators, element orders).
"""

import pytest

from quandles.groups import (
    GroupTable,
    InvalidGroupTable,
    cyclic,
    dihedral_group,
    direct_product,
    from_permutations,
    klein4,
    named_group,
    parse_group_name,
    quaternion8,
    symmetric_group,
)


def assert_group_axioms(g: GroupTable):
    n = g.order
    e = 0  # identity is element 0 by construction
    for a in range(n):
        assert g.mul(a, e) == a == g.mul(e, a)
        assert g.mul(a, g.inv(a)) == e
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


@pytest.mark.parametrize(
    "name,order",
    [
        ("cyclic:1", 1),
        ("cyclic:6", 6),
        ("klein4", 4),
        ("s3", 6),
        ("s4", 24),
        ("q8", 8),
        ("dihedral:3", 6),
        ("dihedral:6", 12),
    ],
)
def test_named_groups_are_groups(name, order):
    g = named_group(name)
    assert g.order == order
    assert parse_group_name(name)[0] == order  # read from the name, no table built
    assert_group_axioms(g)


def test_unknown_name():
    with pytest.raises(ValueError):
        named_group("monster")


def test_empty_table_is_not_a_group():
    # a group contains its identity 0
    with pytest.raises(InvalidGroupTable):
        GroupTable([])


@pytest.mark.parametrize("name", ["cyclic:0", "cyclic:-3"])
def test_named_group_of_order_zero(name):
    with pytest.raises(InvalidGroupTable):
        named_group(name)


class TestStructure:
    def test_cyclic_is_abelian(self):
        assert cyclic(7).is_abelian()
        assert not symmetric_group(3).is_abelian()

    def test_element_orders_divide_group_order(self):
        for g in (symmetric_group(4), quaternion8(), dihedral_group(5)):
            for a in range(g.order):
                assert g.order % g.element_order(a) == 0

    def test_q8_center_and_commutator(self):
        q8 = quaternion8()
        assert len(q8.center()) == 2
        inv = q8.inv
        comms = {q8.mul(q8.mul(inv(a), inv(b)), q8.mul(a, b)) for a in range(8) for b in range(8)}
        assert comms == set(q8.center())  # [Q8, Q8] = Z(Q8) = {1, -1}

    def test_klein4_every_element_involutive(self):
        v = klein4()
        assert v.is_abelian()
        assert all(v.element_order(a) in (1, 2) for a in range(4))

    def test_dihedral_structure(self):
        d5 = dihedral_group(5)
        assert d5.order == 10
        orders = sorted(d5.element_order(a) for a in range(10))
        assert orders == [1, 2, 2, 2, 2, 2, 5, 5, 5, 5]

    def test_direct_product(self):
        g = direct_product(cyclic(2), cyclic(3))
        assert g.order == 6
        assert g.is_abelian()
        assert max(g.element_order(a) for a in range(6)) == 6  # it is Z/6

    def test_from_permutations(self):
        g = from_permutations(3, [(1, 2, 0)])
        assert g.order == 3
        assert_group_axioms(g)

    def test_symmetric_group_cap(self):
        with pytest.raises(ValueError):
            symmetric_group(6)
