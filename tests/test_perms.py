"""Permutation plumbing and the stabilizer-chain group engine.

Oracle: brute-force closure by breadth-first multiplication, known orders
of standard groups, and a reference stabilizer chain built on image tuples
with compose/inverse, which the array-based chain must match level for
level.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from quandles.grid import standard_grid
from quandles.perms import (
    PermGroup,
    closure_order,
    compose,
    cycle_type,
    identity,
    inverse,
    is_identity,
    perm_order,
)


def brute_closure(degree, gens):
    elems = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return elems


def reference_level(degree, point, gens):
    """One chain level on tuples: (transversal in BFS order, Schreier gens)."""
    transversal = {point: identity(degree)}
    queue = [point]
    while queue:
        a = queue.pop(0)
        for g in gens:
            if g[a] not in transversal:
                transversal[g[a]] = compose(transversal[a], g)
                queue.append(g[a])
    schreier = set()
    for a, ua in transversal.items():
        for g in gens:
            s = compose(compose(ua, g), inverse(transversal[g[a]]))
            if not is_identity(s):
                schreier.add(s)
    return transversal, sorted(schreier)


def reference_chain(degree, gens):
    """[(point, transversal items, gens)] per level, smallest moved point first."""
    levels = []
    gens = sorted({g for g in gens if not is_identity(g)})
    while gens:
        point = min(i for g in gens for i in range(degree) if g[i] != i)
        transversal, nxt = reference_level(degree, point, gens)
        levels.append((point, list(transversal.items()), gens))
        gens = nxt
    return levels


def assert_matches_reference(group):
    chain = [(lv.point, list(lv.transversal.items()), lv.gens) for lv in group.chain()]
    assert chain == reference_chain(group.degree, group.generators)
    for point in sorted({0, group.degree // 2, group.degree - 1}):
        _, expected = reference_level(group.degree, point, sorted(group.generators))
        assert group.stabilizer(point).generators == tuple(expected)
    return len(chain)


def _random_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


class TestPlumbing:
    def test_compose_order_of_application(self):
        # compose(p, q) applies p first, then q
        p = (1, 0, 2)
        q = (0, 2, 1)
        r = compose(p, q)
        for i in range(3):
            assert r[i] == q[p[i]]

    def test_inverse(self):
        rng = random.Random(3)
        for _ in range(20):
            p = _random_perm(rng, rng.randint(1, 8))
            assert is_identity(compose(p, inverse(p)))
            assert is_identity(compose(inverse(p), p))

    def test_perm_order_lcm_of_cycles(self):
        p = (1, 0, 3, 4, 2)  # a 2-cycle and a 3-cycle
        assert cycle_type(p) == (2, 3)
        assert perm_order(p) == 6


class TestPermGroup:
    def test_symmetric_order(self):
        gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
        g = PermGroup(4, gens)
        assert g.order == 24
        assert closure_order(4, gens) == 24

    def test_matches_brute_closure_random(self):
        rng = random.Random(17)
        for _ in range(15):
            n = rng.randint(2, 6)
            gens = [_random_perm(rng, n) for _ in range(rng.randint(1, 3))]
            assert PermGroup(n, gens).order == len(brute_closure(n, gens))

    def test_contains(self):
        g = PermGroup(4, [(1, 2, 3, 0)])  # cyclic of order 4
        assert g.contains((2, 3, 0, 1))
        assert not g.contains((1, 0, 2, 3))

    def test_orbit_stabilizer_counting(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(2, 6)
            gens = [_random_perm(rng, n) for _ in range(2)]
            g = PermGroup(n, gens)
            for point in range(n):
                stab = g.stabilizer(point)
                assert g.order == len(g.orbit(point)) * stab.order

    def test_elements_enumeration(self):
        g = PermGroup(3, [(1, 2, 0)])
        elems = set(g.elements())
        assert elems == brute_closure(3, [(1, 2, 0)])

    def test_orbits_partition(self):
        g = PermGroup(5, [(1, 0, 2, 3, 4), (0, 1, 2, 4, 3)])
        assert g.orbits() == [(0, 1), (2,), (3, 4)]


class TestChainAgainstReference:
    def test_random_groups(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 9)
            gens = [_random_perm(rng, n) for _ in range(rng.randint(0, 3))]
            assert_matches_reference(PermGroup(n, gens))

    def test_inner_groups_of_grid_entries(self):
        depths = {}
        for entry in standard_grid():
            depths[entry.key] = assert_matches_reference(entry.build().inn())
        assert depths["symplectic:g2:q2"] >= 3
        assert depths["spherical:n3:q3"] >= 3


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 2**30))
def test_compose_associative(n, seed):
    rng = random.Random(seed)
    p, q, r = (_random_perm(rng, n) for _ in range(3))
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**30))
def test_group_order_divides_factorial(n, seed):
    import math

    rng = random.Random(seed)
    gens = [_random_perm(rng, n) for _ in range(2)]
    assert math.factorial(n) % PermGroup(n, gens).order == 0
