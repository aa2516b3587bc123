"""Finite group tables: axioms, named constructions, centers and element orders.

Oracles: hand-checked structure of the standard small groups (orders of
centers, commutators, element orders).
"""

import collections
import random
import re

import numpy as np
import pytest

from quandles import groups, perms
from quandles.groups import (
    TABLE_LIMIT,
    GroupTable,
    InvalidGroupTable,
    coxeter_generators,
    cyclic,
    direct_product,
    from_permutations,
    klein4,
    named_group,
    parse_group_name,
    quaternion8,
)

from child_memory import child_peaks_kb


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


def reference_group_error(table):
    """The first failure of the per-cell checks GroupTable ran before it
    checked its array, as the message it raised; None for a group."""
    n = len(table)
    if n == 0:
        return "a group needs at least its identity 0"
    for i, row in enumerate(table):
        if len(row) != n:
            return f"row {i} has length {len(row)}"
        if sorted(row) != list(range(n)):
            return f"row {i} is not a permutation"
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != list(range(n)):
            return f"column {j} is not a permutation"
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            return "element 0 is not an identity"
    for i in range(n):
        inv = next((j for j in range(n) if table[i][j] == 0), None)
        if inv is None or table[inv][i] != 0:
            return f"element {i} has no two-sided inverse"
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return f"associativity fails at ({a}, {b}, {c})"
    return None


def corruptions(g: GroupTable):
    """Tables one step away from g's: every cell set to every other value in
    -1..n, every two cells of a row swapped, every two columns swapped, and
    every intercalate (a 2 x 2 subsquare holding two values crosswise)
    flipped."""
    n, rows = g.order, [list(r) for r in g.table]
    for i in range(n):
        for j in range(n):
            for v in range(-1, n + 1):
                if v != rows[i][j]:
                    t = [list(r) for r in rows]
                    t[i][j] = v
                    yield t
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                t = [list(r) for r in rows]
                t[i][j], t[i][k] = rows[i][k], rows[i][j]
                yield t
    for j in range(n):
        for k in range(j + 1, n):
            yield [r[:j] + [r[k]] + r[j + 1 : k] + [r[j]] + r[k + 1 :] for r in rows]
    for i in range(n):
        for i2 in range(i + 1, n):
            for j in range(n):
                for j2 in range(j + 1, n):
                    a, b = rows[i][j], rows[i][j2]
                    if rows[i2][j] == b and rows[i2][j2] == a:
                        t = [list(r) for r in rows]
                        t[i][j], t[i][j2], t[i2][j], t[i2][j2] = b, a, a, b
                        yield t


ALL_KINDS = {"row", "column", "element 0", "inverse", "assoc"}


@pytest.mark.parametrize(
    "build,reached",
    [
        (lambda: cyclic(6), ALL_KINDS),
        (lambda: named_group("s3"), ALL_KINDS),
        (quaternion8, ALL_KINDS - {"inverse"}),  # no flip leaves a one-sided inverse
    ],
    ids=["cyclic6", "sym3", "quaternion8"],
)
def test_array_check_matches_the_per_cell_reference(build, reached):
    kinds = set()
    for table in corruptions(build()):
        expected = reference_group_error(table)
        if expected is None:
            assert GroupTable(table).table == tuple(map(tuple, table))
            continue
        with pytest.raises(InvalidGroupTable) as exc:
            GroupTable(table)
        assert str(exc.value) == expected
        kinds.add(next(k for k in ALL_KINDS if k in expected))
    assert kinds == reached


def test_associativity_blocks_keep_the_first_failure(monkeypatch):
    # two a-rows per block, so the six rows of cyclic(6) span three blocks
    monkeypatch.setattr(perms, "BLOCK_CELLS", 2 * 6 * 6)
    failures = 0
    for table in corruptions(cyclic(6)):
        expected = reference_group_error(table)
        if expected and expected.startswith("associativity"):
            failures += 1
            with pytest.raises(InvalidGroupTable, match=rf"^{re.escape(expected)}$"):
                GroupTable(table)
    assert failures


@pytest.mark.parametrize(
    "build", [lambda: cyclic(6), lambda: named_group("s3")], ids=["cyclic6", "sym3"]
)
def test_one_row_blocks_keep_every_first_failure(monkeypatch, build):
    # one row per block in the permutation checks and in Light's test
    monkeypatch.setattr(perms, "BLOCK_CELLS", 6)
    for table in corruptions(build()):
        assert group_error(table) == reference_group_error(table)


def test_an_int64_array_is_kept_without_a_copy():
    m = (np.arange(5)[:, None] + np.arange(5)) % 5
    g = GroupTable(m)
    assert np.shares_memory(g.array, m)
    assert not g.array.flags.writeable and m.flags.writeable


def test_a_table_of_half_the_limit_peaks_under_130_mb():
    (peak,) = child_peaks_kb(
        "from quandles.groups import named_group\n"
        "assert named_group('cyclic:2048').order == 2048\n"
        "print(peak_kb())\n"
    )
    assert peak < 130 * 1024


@pytest.mark.parametrize(
    "table,message",
    [
        ([[0, 1], [1]], "row 1 has length 1"),
        ([[0, 5], [1]], "row 0 is not a permutation"),  # before the short row
        ([[0, 1], [1, 0, 1]], "row 1 has length 3"),
        ([[0, 10**30], [1, 0]], "row 0 is not a permutation"),  # beyond int64
    ],
)
def test_malformed_rows(table, message):
    assert reference_group_error(table) == message
    with pytest.raises(InvalidGroupTable, match=f"^{message}$"):
        GroupTable(table)


def _coxeter(kind):
    _name, degree, gens = coxeter_generators(kind)
    return lambda: from_permutations(degree, gens)


GENERATED = (
    [("sym1", lambda: from_permutations(1, []))]
    + [(f"sym{n}", lambda n=n: named_group(f"A{n - 1}")) for n in range(2, 6)]
    + [(f"dihedral{m}", lambda m=m: named_group(f"dihedral:{m}")) for m in range(3, 13)]
    + [("A3", _coxeter("A3")), ("I2(8)", _coxeter("I2(8)"))]
)


@pytest.mark.parametrize("build", [b for _, b in GENERATED], ids=[k for k, _ in GENERATED])
def test_from_permutations_matches_the_pairwise_table(build):
    # the table as it was first built: every pair of elements composed
    g = build()
    elems = [tuple(map(int, label.split())) for label in g.labels]
    assert elems == sorted(elems)
    index = {p: i for i, p in enumerate(elems)}
    assert g.table == tuple(tuple(index[perms.compose(p, q)] for q in elems) for p in elems)


def test_from_permutations_composes_no_pairs(monkeypatch):
    calls = 0
    compose = perms.compose

    def counted(p, q):
        nonlocal calls
        calls += 1
        return compose(p, q)

    monkeypatch.setattr(perms, "compose", counted)
    g = named_group("dihedral:200")
    # the closure composes every element with each of the two generators,
    # the stabilizer chain once per transversal point; 160,000 pairs would
    # be one per table cell
    assert calls <= g.order * 2 + 200


def scan_group_error(table):
    """The check GroupTable ran before Light's test, with associativity
    scanned on all n^3 cells, as the message of its first failure; None for
    a group."""
    n = len(table)
    m = np.array(table, dtype=np.int64)
    identity = np.arange(n)
    bad = (np.sort(m, axis=1) != identity).any(axis=1)
    if bad.any():
        return f"row {int(np.argmax(bad))} is not a permutation"
    bad = (np.sort(m, axis=0) != identity[:, None]).any(axis=0)
    if bad.any():
        return f"column {int(np.argmax(bad))} is not a permutation"
    if (m[0] != identity).any() or (m[:, 0] != identity).any():
        return "element 0 is not an identity"
    inv = m.argmin(axis=1)
    bad = m[inv, identity] != 0
    if bad.any():
        return f"element {int(np.argmax(bad))} has no two-sided inverse"
    for a in range(n):
        bad = np.argwhere(m[m[a]] != m[a][m])  # (ab)c vs a(bc) for all b, c
        if len(bad):
            b, c = (int(v) for v in bad[0])
            return f"associativity fails at ({a}, {b}, {c})"
    return None


def group_error(table):
    try:
        GroupTable(table)
    except InvalidGroupTable as exc:
        return str(exc)
    return None


def seeded_corruptions(g: GroupTable, rng, count):
    """`count` tables of g with one intercalate flipped (a Latin square that
    keeps its identity but is seldom associative), and `count` with two
    cells of one column swapped."""
    n, rows = g.order, g.array.tolist()
    flips = 0
    for _ in range(100 * count):
        if flips == count:
            break
        i, i2 = rng.sample(range(1, n), 2)
        j = rng.randrange(1, n)
        j2 = rows[i].index(rows[i2][j])
        a, b = rows[i][j], rows[i2][j]
        if j2 and rows[i2][j2] == a:
            t = [list(r) for r in rows]
            t[i][j], t[i][j2], t[i2][j], t[i2][j2] = b, a, a, b
            flips += 1
            yield t
    for _ in range(count):
        j = rng.randrange(n)
        i, i2 = rng.sample(range(n), 2)
        t = [list(r) for r in rows]
        t[i][j], t[i2][j] = t[i2][j], t[i][j]
        yield t


CATALOGUE = GENERATED + [
    (name, lambda name=name: named_group(name))
    for name in ("cyclic:2", "cyclic:7", "cyclic:16", "klein4", "q8", "dihedral:20")
] + [("cyclic(2)xdihedral5", lambda: direct_product(cyclic(2), named_group("dihedral:5")))]


def test_light_test_agrees_with_the_full_scan():
    rng = random.Random(1961)
    outcomes = collections.Counter()
    for key, build in CATALOGUE:
        g = build()
        if g.order < 3:
            continue
        for table in seeded_corruptions(g, rng, 20):
            expected = scan_group_error(table)
            assert group_error(table) == expected, key
            outcomes[expected.split(" ")[0] if expected else None] += 1
    assert set(outcomes) == {None, "associativity", "row", "element"}
    assert outcomes["associativity"] > 200, outcomes


@pytest.mark.parametrize("key,build", CATALOGUE, ids=[k for k, _ in CATALOGUE])
def test_light_test_passes_without_the_scan(monkeypatch, key, build):
    g = build()
    generators = groups.table_generators(g.array, closed=(0,))
    calls = 0
    scan = groups._scan_associativity

    def counted(m):
        nonlocal calls
        calls += 1
        return scan(m)

    monkeypatch.setattr(groups, "_scan_associativity", counted)
    assert GroupTable(g.array).table == g.table
    assert calls == (2 * len(generators) >= g.order)
    assert len(generators) <= max(1, (g.order - 1).bit_length())  # each one doubles <S>


def test_a_light_failure_the_scan_misses_is_an_error(monkeypatch):
    monkeypatch.setattr(groups, "_associates_through", lambda m, s: False)
    with pytest.raises(RuntimeError, match="internal error"):
        GroupTable(cyclic(9).array)


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


def center(g: GroupTable) -> frozenset[int]:
    commutes = (g.array == g.array.T).all(axis=1)
    return frozenset(np.flatnonzero(commutes).tolist())


def is_abelian(g: GroupTable) -> bool:
    return bool(np.array_equal(g.array, g.array.T))


def element_order(g: GroupTable, a: int) -> int:
    n, x = 1, a
    while x != 0:
        x = g.mul(x, a)
        n += 1
    return n


class TestStructure:
    def test_cyclic_is_abelian(self):
        assert is_abelian(cyclic(7))
        assert not is_abelian(named_group("s3"))

    def test_element_orders_divide_group_order(self):
        for g in (named_group("s4"), quaternion8(), named_group("dihedral:5")):
            for a in range(g.order):
                assert g.order % element_order(g, a) == 0

    def test_q8_center_and_commutator(self):
        q8 = quaternion8()
        assert len(center(q8)) == 2
        inv = q8.inv
        comms = {q8.mul(q8.mul(inv(a), inv(b)), q8.mul(a, b)) for a in range(8) for b in range(8)}
        assert comms == set(center(q8))  # [Q8, Q8] = Z(Q8) = {1, -1}

    def test_klein4_every_element_involutive(self):
        v = klein4()
        assert is_abelian(v)
        assert all(element_order(v, a) in (1, 2) for a in range(4))

    def test_dihedral_structure(self):
        d5 = named_group("dihedral:5")
        assert d5.order == 10
        orders = sorted(element_order(d5, a) for a in range(10))
        assert orders == [1, 2, 2, 2, 2, 2, 5, 5, 5, 5]

    def test_direct_product(self):
        g = direct_product(cyclic(2), cyclic(3))
        assert g.order == 6
        assert is_abelian(g)
        assert max(element_order(g, a) for a in range(6)) == 6  # it is Z/6

    def test_from_permutations(self):
        g = from_permutations(3, [(1, 2, 0)])
        assert g.order == 3
        assert_group_axioms(g)

    def test_symmetric_group_cap(self):
        # S_7 is A6, of 5040 elements
        with pytest.raises(ValueError, match=f"^A6 names a group of more than {TABLE_LIMIT} elements$"):
            named_group("A6")


# The builders the one resolver and the base-keyed tabulation replaced, kept
# as references: each composed row looked up by its bytes, and the two
# generator sets symmetric_group and dihedral_group built their groups on.


def reference_from_permutations(degree, gens, name=None):
    group = perms.PermGroup(degree, gens)
    elems = sorted(map(tuple, group.elements(limit=TABLE_LIMIT).tolist()))
    images = np.array(elems, dtype=np.int32).reshape(len(elems), degree)
    index = {row.tobytes(): i for i, row in enumerate(images)}
    table = [[index[row.tobytes()] for row in images[:, p]] for p in images]
    return GroupTable(table, labels=[perms.format_perm(p) for p in elems], name=name)


def reference_symmetric_group(n):
    gens = [tuple([1, 0] + list(range(2, n))), tuple(list(range(1, n)) + [0])] if n >= 2 else []
    return reference_from_permutations(n, gens, name=f"sym{n}")


def reference_dihedral_group(m):
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((-i) % m for i in range(m))
    return reference_from_permutations(m, [rot, ref], name=f"dihedral{m}")


def contents(g: GroupTable):
    return g.name, g.labels, g.array.tolist()


RESOLVED = (
    [("s3", lambda: reference_symmetric_group(3)), ("s4", lambda: reference_symmetric_group(4))]
    + [("q8", quaternion8), ("klein4", klein4), ("cyclic:6", lambda: cyclic(6))]
    + [(f"dihedral:{m}", lambda m=m: reference_dihedral_group(m)) for m in (3, 5, 8)]
    + [(f"A{n}", lambda n=n: reference_symmetric_group(n + 1)) for n in range(1, 6)]
    + [("B2", lambda: reference_dihedral_group(4)), ("G2", lambda: reference_dihedral_group(6))]
    + [(f"I2({m})", lambda m=m: reference_dihedral_group(m)) for m in range(3, 13)]
)


@pytest.mark.parametrize("name,reference", RESOLVED, ids=[k for k, _ in RESOLVED])
def test_the_resolver_builds_the_reference_table(name, reference):
    order, build = parse_group_name(name)
    expected = reference()
    assert order == expected.order
    assert contents(build()) == contents(expected)


def test_from_permutations_matches_the_reference_on_random_generators():
    rng = random.Random(1999)
    orders = set()
    for _ in range(60):
        degree = rng.randint(1, 7)
        gens = []
        for _ in range(rng.randint(0, 3)):
            p = list(range(degree))
            rng.shuffle(p)
            gens.append(tuple(p))
        if perms.PermGroup(degree, gens).order > 720:
            continue
        g = from_permutations(degree, gens, name="g")
        assert contents(g) == contents(reference_from_permutations(degree, gens, name="g"))
        orders.add(g.order)
    assert len(orders) >= 8, orders


@pytest.mark.parametrize(
    "name,order",
    [("s3", 6), ("s4", 24), ("q8", 8), ("klein4", 4), ("cyclic:7", 7), ("dihedral:9", 18)]
    + [("A1", 2), ("a5", 720), ("B2", 8), ("G2", 12), ("i2(2048)", TABLE_LIMIT)],
)
def test_the_resolver_reads_the_order_without_building(monkeypatch, name, order):
    calls = []
    for owner, attr in ((groups, "from_permutations"), (groups, "coxeter_generators"),
                        (groups, "cyclic"), (perms.PermGroup, "__init__")):
        original = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *a, _f=original, **k: calls.append(a) or _f(*a, **k))
    assert parse_group_name(name)[0] == order
    assert calls == []


@pytest.mark.parametrize("name", ["A100000", "A6", "dihedral:2049", "I2(2049)", "cyclic:4097"])
def test_a_name_past_the_limit_is_refused_before_anything_is_built(monkeypatch, name):
    monkeypatch.setattr(groups, "coxeter_generators", None)
    monkeypatch.setattr(groups, "from_permutations", None)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} names a group of more than {TABLE_LIMIT} elements$"):
        parse_group_name(name)


@pytest.mark.parametrize("label", ["A90", "I2(4096)"])  # 4095 and 4096 reflections
def test_coxeter_labels_at_the_reflection_limit_are_accepted(label):
    assert coxeter_generators(label)[1] in (91, 4096)


@pytest.mark.parametrize("label", ["A91", "A100", "A100000", "I2(4097)"])
def test_coxeter_labels_past_the_reflection_limit_are_refused(label):
    message = f"^{re.escape(label)} names a reflection quandle of more than {TABLE_LIMIT} elements$"
    with pytest.raises(ValueError, match=message):
        coxeter_generators(label)


@pytest.mark.parametrize("name", ["A0", "I2(2)", "dihedral:2", "H3", "sym3"])
def test_bad_names_and_labels(name):
    with pytest.raises(ValueError):
        parse_group_name(name)


@pytest.mark.parametrize(
    "conjugate,elements",
    [
        (False, [(0, 1, 2), (1, 2, 0)]),  # the square of the 3-cycle is missing
        (True, [(1, 0, 2), (0, 2, 1)]),  # the conjugate of each by the other is missing
    ],
)
def test_a_product_missing_from_the_elements_is_an_internal_error(conjugate, elements):
    s3 = perms.PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    with pytest.raises(RuntimeError, match="internal error"):
        perms.tabulate(np.array(elements, dtype=np.int32), perms.base_points(s3), conjugate)
