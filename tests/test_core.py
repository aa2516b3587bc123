"""Quandle axioms, profiles, serialization, morphisms, isomorphism search."""

import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import core, families, perms
from quandles.core import (
    AxiomViolation,
    FiniteQuandle,
    NotSurjective,
    dump_table,
    find_isomorphism,
    is_covering,
    is_homomorphism,
    load_table,
    validate,
)

from alexander_specs import connected_alexander_specs
from child_memory import child_peaks_kb

R3_TABLE = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]


class TestValidate:
    def test_accepts_dihedral3(self):
        q = validate(R3_TABLE)
        assert q.order == 3

    def test_rejects_broken_idempotency(self):
        table = [[1, 2, 1], [2, 1, 0], [1, 0, 2]]
        with pytest.raises(AxiomViolation) as exc:
            validate(table)
        assert exc.value.axiom == "i"

    def test_rejects_non_bijective_column(self):
        table = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]
        with pytest.raises(AxiomViolation) as exc:
            validate(table)
        assert exc.value.axiom == "ii"
        assert exc.value.witness is not None

    def test_rejects_broken_distributivity(self):
        # right-translations bijective and idempotent, but not distributive
        table = [
            [0, 0, 1, 1],
            [1, 1, 0, 0],
            [3, 2, 2, 2],
            [2, 3, 3, 3],
        ]
        with pytest.raises(AxiomViolation) as exc:
            validate(table)
        assert exc.value.axiom == "iii"

    def test_distributivity_witness_is_first_across_blocks(self):
        # x <| y = s_y(x): every s_y is the identity except s_0 = (40 100) and
        # s_1 = (40 41).  These do not commute, so (iii) fails exactly for
        # x in {40, 41, 100} with {y, z} = {0, 1}; the first triple is (40, 0, 1).
        n = 128
        table = [[x] * n for x in range(n)]
        for y, (a, b) in ((0, (40, 100)), (1, (40, 41))):
            table[a][y], table[b][y] = b, a
        step = max(1, perms.BLOCK_CELLS // (n * n))
        assert 40 // step != 100 // step  # the failures span two x blocks
        with pytest.raises(AxiomViolation) as exc:
            validate(table)
        assert exc.value.axiom == "iii"
        assert exc.value.witness == (40, 0, 1)
        assert "(40<|0)<|1 == 100 but (40<|1)<|(0<|1) == 41" in str(exc.value)

    def test_validation_memory_is_quadratic(self):
        # the whole-cube check held two n^3 int64 arrays: 2 GiB at n = 512
        (peak,) = child_peaks_kb(
            "from quandles import families\n"
            "assert families.dihedral(512).order == 512\n"
            "print(peak_kb())\n"
        )
        assert peak < 200 * 1024

    def test_validation_holds_no_second_table(self):
        # validation copied the table and sorted the copy's columns: the peak
        # rose by about three tables, 104 MiB here
        n = 2048
        before, after = child_peaks_kb(
            "import numpy as np\n"
            "from quandles.core import validate\n"
            f"n = {n}\n"
            "table = np.empty((n, n), dtype=np.int64)\n"
            "for x in range(n):\n"
            "    table[x] = (2 * np.arange(n) - x) % n\n"
            "print(peak_kb())\n"
            "assert validate(table).order == n\n"
            "print(peak_kb())\n"
        )
        assert after - before < n * n * 8 // 4 // 1024  # a quarter of the table

    def test_rejects_malformed(self):
        with pytest.raises(AxiomViolation) as exc:
            validate([[0, 1], [0]])
        assert str(exc.value) == "axiom (ii) fails: row 1 has length 1, want 2"
        with pytest.raises(AxiomViolation) as exc:
            validate([[5]])
        assert str(exc.value) == "axiom (ii) fails: entry 5 outside 0..0"

    @pytest.mark.parametrize(
        "table,witness",
        [
            ([[0, 1, 7], [1, 9, 0], [2, 2, -1]], (0, 7)),
            ([[0, 1, 2], [1, 1, -4], [9, 2, 2]], (1, -4)),
            ([[0, 1, 2], [1, 1], [9, 2, 2]], 1),  # the short row comes first
            ([[0, 3], [1]], (0, 3)),  # the bad entry comes before the short row
            ([[0, 10**30], [1, 1]], (0, 10**30)),  # beyond int64
        ],
    )
    def test_malformed_witness_is_first_in_row_major_order(self, table, witness):
        with pytest.raises(AxiomViolation) as exc:
            validate(table)
        assert exc.value.axiom == "ii"
        assert exc.value.witness == witness


class TestArrayLayout:
    def test_array_is_read_only_and_matches_the_table(self):
        q = families.spherical(2, 3)
        assert not q.array.flags.writeable
        with pytest.raises(ValueError):
            q.array[0, 0] = 1
        assert q.array.dtype == np.int64
        assert q.array.tolist() == [list(r) for r in q.table]

    def test_lists_tuples_and_arrays_give_equal_quandles(self):
        rows = families.dihedral(6).array.tolist()
        qs = [
            validate(rows),
            validate(tuple(map(tuple, rows))),
            validate(np.array(rows, dtype=np.int64)),
            validate(np.array(rows, dtype=np.int32)),
        ]
        assert all(q == qs[0] and hash(q) == hash(qs[0]) for q in qs)
        assert all(type(v) is int for row in qs[2].table for v in row)

    def test_the_tuple_view_is_built_on_first_read(self):
        from quandles.coverings import universal_covering_alexander
        from quandles.groups import named_group

        group = named_group("dihedral:5")
        inst = universal_covering_alexander(families.AlexanderModuleSpec.scalar((3, 3), -1))
        built = [
            ("validate", validate(R3_TABLE)),
            ("load_table", load_table(dump_table(validate(R3_TABLE)))),
            ("covering total", inst.total),
            ("covering base", inst.base),
            ("core", families.core(group)),
            ("group", group),
        ]
        for what, q in built:
            assert "table" not in vars(q), what
            assert q.order == len(q.array)
            view = q.table
            assert view == tuple(map(tuple, q.array.tolist())) and vars(q)["table"] is view, what


# The per-cell loops that orbits, is_homomorphism and is_covering ran before
# they read the table array; the array versions must agree with them.


def reference_orbits(q):
    parent = list(range(q.order))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x in range(q.order):
        for y in range(q.order):
            ra, rb = find(x), find(q.apply(x, y))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for x in range(q.order):
        groups.setdefault(find(x), []).append(x)
    return sorted((tuple(sorted(v)) for v in groups.values()), key=lambda t: t[0])


def reference_is_homomorphism(f, src, dst):
    f = tuple(f)
    if len(f) != src.order or any(not 0 <= v < dst.order for v in f):
        return False
    return all(
        f[src.apply(a, b)] == dst.apply(f[a], f[b])
        for a in range(src.order)
        for b in range(src.order)
    )


def reference_is_covering(f, src, dst):
    f = tuple(f)
    if not reference_is_homomorphism(f, src, dst):
        return False
    if set(f) != set(range(dst.order)):
        raise NotSurjective(f"image has {len(set(f))} of {dst.order} elements")
    fibers = {}
    for x, v in enumerate(f):
        fibers.setdefault(v, []).append(x)

    def column(y):
        return tuple(src.apply(x, y) for x in range(src.order))

    for members in fibers.values():
        first = column(members[0])
        if any(column(m) != first for m in members[1:]):
            return False
    return True


def covering_outcome(check, f, src, dst):
    try:
        return check(f, src, dst)
    except NotSurjective as exc:
        return str(exc)


def assert_morphism_checks_agree(f, src, dst):
    assert is_homomorphism(f, src, dst) == reference_is_homomorphism(f, src, dst)
    assert covering_outcome(is_covering, f, src, dst) == covering_outcome(
        reference_is_covering, f, src, dst
    )


def relabeled(q, rng):
    """q with element x renamed sigma(x), and sigma."""
    sigma = np.array(rng.sample(range(q.order), q.order))
    table = np.empty_like(q.array)
    table[sigma[:, None], sigma[None, :]] = sigma[q.array]
    return validate(table), sigma.tolist()


# the four tables of the benchmark's `tables` workload; COMPANION is the
# companion matrix of x^8 + x^4 + x^3 + x^2 + 1, primitive over F_2
_LOW = [1, 0, 1, 1, 1, 0, 0, 0]
COMPANION = [[int(i == j + 1) for j in range(7)] + [_LOW[i]] for i in range(8)]
TABLE_INPUTS = {
    "symplectic-g2-q3": lambda: families.symplectic(2, 3),
    "alexander-2e8-primitive": lambda: families.alexander(
        families.AlexanderModuleSpec((2,) * 8, COMPANION)
    ),
    "spherical-n3-q5": lambda: families.spherical(3, 5),
    "dihedral-n200": lambda: families.dihedral(200),
}


class TestArrayChecksAgainstReferences:
    def test_orbits_of_every_catalogue_entry(self):
        # orbits reads the columns of S alone; the reference reads them all
        for key, q in catalogue() + [("trivial:5", families.trivial(5))]:
            assert q.orbits() == reference_orbits(q), key

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_orbits_along_one_long_cycle(self, n):
        # n points acted on by an n-cycle through one more point; hooking only
        # each x to its neighbours' labels would need about n rounds here
        q = validate([[x] * n + [(x + 1) % n] for x in range(n)] + [[n] * (n + 1)])
        assert q.orbits() == reference_orbits(q) == [tuple(range(n)), (n,)]

    def test_orbits_of_a_trivial_quandle_and_relabeled_components(self):
        # the pull-back follows only x -> x <| s; each orbit here is one point,
        # or a dihedral orbit whose least element moves under relabeling
        rng = random.Random(1995)
        tables = [families.trivial(300)] + [
            relabeled(dihedral3_and_two_points(), rng)[0] for _ in range(20)
        ]
        for q in tables:
            assert q.orbits() == reference_orbits(q)

    @pytest.mark.parametrize("name", TABLE_INPUTS)
    def test_relabeled_tables(self, name):
        q = TABLE_INPUTS[name]()
        r, sigma = relabeled(q, random.Random(q.order))
        assert r.orbits() == reference_orbits(r)
        assert len(r.orbits()) == len(q.orbits())
        assert is_covering(sigma, q, r)
        swapped = list(sigma)
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        for f in (sigma, swapped, [0] * q.order):
            assert_morphism_checks_agree(f, q, r)

    @pytest.mark.parametrize(
        "orders,t",
        [((2, 2), [[0, 1], [1, 1]]), ((3, 3), -1), ((3, 3, 3), -1)],
        ids=["FIB", "NEG33", "3,3,3:t-1"],
    )
    def test_coverings_and_broken_projections(self, orders, t):
        from quandles.coverings import universal_covering_alexander

        spec = (
            families.AlexanderModuleSpec.scalar(orders, t)
            if isinstance(t, int)
            else families.AlexanderModuleSpec(orders, t)
        )
        inst = universal_covering_alexander(spec)
        total, base, p = inst.total, inst.base, list(inst.projection)
        assert total.orbits() == reference_orbits(total)
        other = next(i for i, v in enumerate(p) if v != p[0])
        swapped = list(p)
        swapped[0], swapped[other] = p[other], p[0]
        # projections of two elements of one fiber swapped: still a covering
        same = next(i for i, v in enumerate(p) if i and v == p[0])
        within = list(p)
        within[0], within[same] = p[same], p[0]
        for f in (p, swapped, within, [0] * total.order, [p[0]] * total.order):
            assert_morphism_checks_agree(f, total, base)
        single = families.trivial(1)
        assert_morphism_checks_agree([0] * total.order, total, single)


def reference_axiom_error(table):
    """The first failure of the check validate ran before it read axiom
    (iii) on a generating set, as (axiom, witness, message); None for a
    quandle.  Axiom (iii) is scanned on all n^3 cells."""
    n = len(table)
    arr = np.array(table, dtype=np.int64)
    if n == 0:
        return "i", None, "axiom (i) fails: empty carrier"
    for x in range(n):
        if arr[x, x] != x:
            return "i", x, f"axiom (i) fails: {x} <| {x} == {arr[x, x]} != {x}"
    for y in range(n):
        seen = {}
        for x, v in enumerate(arr[:, y].tolist()):
            if v in seen:
                return "ii", (seen[v], x, y), (
                    f"axiom (ii) fails: right translation by {y} maps both {seen[v]} and {x} to {v}"
                )
            seen[v] = x
    flat = arr.ravel()
    for x in range(n):
        left = arr[arr[x]]  # left[y, z] = (x <| y) <| z
        right = flat.take(arr[x][None, :] * n + arr)  # (x <| z) <| (y <| z)
        bad = np.argwhere(left != right)
        if len(bad):
            y, z = (int(v) for v in bad[0])
            return "iii", (x, y, z), (
                f"axiom (iii) fails: ({x}<|{y})<|{z} == {int(left[y, z])} but "
                f"({x}<|{z})<|({y}<|{z}) == {int(right[y, z])}"
            )
    return None


def axiom_outcome(table):
    try:
        validate(table)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness, str(exc)
    return None


def column_swaps(q, rng, count):
    """`count` tables of q with two cells of one column swapped, neither of
    them on the diagonal, so that axioms (i) and (ii) still hold."""
    for _ in range(count):
        y = rng.randrange(q.order)
        a, b = rng.sample([x for x in range(q.order) if x != y], 2)
        t = q.array.tolist()
        t[a][y], t[b][y] = t[b][y], t[a][y]
        yield t


def closure(q, generators):
    """The subquandle generated, by products of pairs until none is new."""
    reached = set(generators)
    while True:
        more = {q.apply(a, b) for a in reached for b in reached} - reached
        if not more:
            return reached
        reached |= more


def reference_generating_set(q):
    """The elements with a constant row, then by first fresh column: the
    first unreached element whose column differs from every reached
    element's, else the first unreached element."""
    generators = [x for x in range(q.order) if set(q.table[x]) == {x}]
    reached = set(generators)
    while len(reached) < q.order:
        columns = {q.column(x) for x in reached}
        unreached = [x for x in range(q.order) if x not in reached]
        s = next((x for x in unreached if q.column(x) not in columns), unreached[0])
        generators.append(s)
        reached = closure(q, reached | {s})
    return tuple(generators)


def reference_column_ids(array, ys):
    """For each y in ys, the first of ys with y's column, by a dict of the
    columns' bytes."""
    first = {}
    return [first.setdefault(array[:, y].tobytes(), y) for y in ys]


def catalogue():
    from quandles.grid import standard_grid

    return [(entry.key, entry.build()) for entry in standard_grid()]


def dihedral3_and_two_points():
    """The dihedral quandle of order 3 and two points, each component acting
    trivially on the other."""
    table = [[x] * 5 for x in range(5)]
    for x in range(3):
        for y in range(3):
            table[x][y] = (2 * y - x) % 3
    return validate(table)


class TestGeneratingSet:
    def test_every_catalogue_entry(self):
        from quandles.coverings import universal_covering_alexander

        rng = random.Random(2014)
        tables = catalogue() + [("dihedral3+2", dihedral3_and_two_points())]
        tables += [(f"relabeled {key}", relabeled(q, rng)[0]) for key, q in tables]
        totals = [universal_covering_alexander(spec).total for spec in connected_alexander_specs(25)]
        assert len(totals) == 17
        tables += [(f"total {q.order}", q) for q in totals]
        for key, q in tables:
            s = q.generating_set()
            assert s == reference_generating_set(q), key
            assert closure(q, s) == set(range(q.order)), key
            assert validate(q.array.tolist()).generating_set() == s, key

    @pytest.mark.parametrize(
        "bucket",
        [lambda array, ys: np.zeros(len(ys), dtype=np.int64), lambda array, ys: array[0, ys] % 3],
        ids=["one", "three"],
    )
    def test_columns_with_one_hash_are_told_apart(self, monkeypatch, bucket):
        # columns are grouped by hash; with every hash in one or three
        # buckets the columns of a bucket that differ are told apart one by one
        monkeypatch.setattr(core, "_column_hashes", bucket)
        for key, q in catalogue() + [("dihedral3+2", dihedral3_and_two_points())]:
            assert core.table_generators(q.array) == reference_generating_set(q), key
            ys = list(range(q.order))
            assert core._column_ids(q.array, ys).tolist() == reference_column_ids(q.array, ys), key

    def test_column_ids_against_the_column_dict(self):
        # the ids of the hash groups, checked in one blockwise pass, against
        # the first column of equal bytes; 52 of these 133 tables repeat a
        # column: 24 tables, their relabeled copies and 4 covering totals
        from quandles.coverings import universal_covering_alexander

        rng = random.Random(23)
        tables = catalogue() + [("trivial 64", families.trivial(64))]
        tables += [(f"relabeled {key}", relabeled(q, rng)[0]) for key, q in tables]
        totals = [universal_covering_alexander(spec).total for spec in connected_alexander_specs(25)]
        tables += [(f"total {q.order}", q) for q in totals]
        repeated = 0
        for key, q in tables:
            ys = list(range(q.order))
            ids = core._column_ids(q.array, ys).tolist()
            assert ids == reference_column_ids(q.array, ys), key
            gens = list(q.generating_set())
            assert core._column_ids(q.array, gens).tolist() == reference_column_ids(q.array, gens), key
            shuffled = rng.sample(ys, len(ys))
            assert core._column_ids(q.array, shuffled).tolist() == reference_column_ids(
                q.array, shuffled
            ), key
            repeated += ids != ys
        assert repeated == 52

    def test_translations_are_the_first_generator_of_each_column(self):
        # the translations come from the column ids of all elements that
        # chose S, as the first of S with each column, in the order of S
        rng = random.Random(29)
        tables = catalogue() + [("dihedral3+2", dihedral3_and_two_points())]
        tables += [(f"relabeled {key}", relabeled(q, rng)[0]) for key, q in tables]
        for key, q in tables:
            gens = q.generating_set()
            expected = tuple(dict.fromkeys(reference_column_ids(q.array, gens)))
            assert q._translations == expected, key

    def test_validate_hashes_the_columns_once(self, monkeypatch):
        calls = []
        column_ids = core._column_ids

        def counted(array, ys):
            calls.append(len(ys))
            return column_ids(array, ys)

        monkeypatch.setattr(core, "_column_ids", counted)
        for key, q in catalogue():
            calls.clear()
            validate(q.array)
            assert calls == [q.order], key

    def test_fibers_of_a_covering_are_skipped(self):
        # the 27 elements of a fiber share a column; taking each unreached
        # element in turn would pick a whole fiber
        from quandles.coverings import universal_covering_alexander

        spec = families.AlexanderModuleSpec.scalar((3, 3, 3), -1)
        total = universal_covering_alexander(spec).total
        assert total.order == 729
        assert len(total.generating_set()) == 4

    def test_inn_and_type_read_the_generating_set(self):
        from math import lcm

        from quandles.perms import closure_order, perm_order

        for key, q in catalogue():
            columns = list(dict.fromkeys(q.column(y) for y in range(q.order)))
            assert q.inn().order == closure_order(q.order, columns), key
            assert q.type == lcm(*map(perm_order, columns)), key
            assert set(map(tuple, q.inn().generators.tolist())) <= set(columns), key

    @pytest.mark.parametrize("one_row_blocks", [False, True], ids=["default", "one-row"])
    def test_reduced_check_agrees_with_the_full_scan(self, monkeypatch, one_row_blocks):
        # a False from the reduced check sends validate to the scan; with
        # one-row blocks every witness is found across blocks
        caught = 0
        is_endomorphism = core._is_endomorphism

        def counted(arr, s):
            nonlocal caught
            result = is_endomorphism(arr, s)
            caught += not result
            return result

        monkeypatch.setattr(core, "_is_endomorphism", counted)
        rng = random.Random(20140612)
        outcomes = set()
        for key, q in catalogue():
            if q.order < 3:
                continue
            if one_row_blocks:
                monkeypatch.setattr(perms, "BLOCK_CELLS", q.order)
            for table in column_swaps(q, rng, 30):
                expected = reference_axiom_error(table)
                assert axiom_outcome(table) == expected, key
                outcomes.add(None if expected is None else expected[0])
        assert outcomes == {None, "iii"}
        assert caught > 1000

    def test_witness_and_message_are_those_of_the_scan(self):
        q = families.dihedral(12)
        assert len(q.generating_set()) * 2 < q.order  # the reduced path runs first
        table = q.array.tolist()
        table[5][7], table[9][7] = table[9][7], table[5][7]
        expected = reference_axiom_error(table)
        assert expected[0] == "iii"
        assert axiom_outcome(table) == expected

    def test_the_law_is_checked_once_per_distinct_translation(self, monkeypatch):
        calls = {"reduced": 0, "scan": 0}
        is_endomorphism, scan = core._is_endomorphism, core._scan_distributivity

        def reduced(arr, s):
            calls["reduced"] += 1
            return is_endomorphism(arr, s)

        def full(arr):
            calls["scan"] += 1
            return scan(arr)

        monkeypatch.setattr(core, "_is_endomorphism", reduced)
        monkeypatch.setattr(core, "_scan_distributivity", full)
        q = families.trivial(256)
        assert q.generating_set() == tuple(range(256))  # each is its own subquandle
        assert calls == {"reduced": 1, "scan": 0}  # all 256 act as the identity
        calls["reduced"] = 0
        q = families.dihedral(256)
        translations = {q.column(s) for s in q.generating_set()}
        assert calls == {"reduced": len(translations), "scan": 0}

    def test_a_reduced_failure_the_scan_misses_is_an_error(self, monkeypatch):
        monkeypatch.setattr(core, "_is_endomorphism", lambda arr, s: False)
        with pytest.raises(RuntimeError, match="internal error"):
            validate(families.dihedral(7).array)


class TestInvariantPlumbing:
    def test_profile_of_dihedral3(self):
        p = validate(R3_TABLE).profile()
        assert p.order == 3
        assert p.type == 2
        assert p.connected
        assert len(p.orbits) == 1
        assert p.inn_order == 6

    def test_trivial_quandle_profile(self):
        p = families.trivial(4).profile()
        assert p.type == 1
        assert not p.connected
        assert len(p.orbits) == 4
        assert p.inn_order == 1

    def test_type_divides_pointwise(self):
        # the type is the least n with all column perms of order dividing n
        from quandles.perms import perm_order

        for q in (validate(R3_TABLE), families.dihedral(4), families.trivial(3)):
            t = q.type
            for y in range(q.order):
                assert t % perm_order(q.column(y)) == 0

    def test_orbits_cover(self):
        q = families.dihedral(4)
        flat = sorted(x for orb in q.orbits() for x in orb)
        assert flat == list(range(4))

    def test_apply_matches_table(self):
        q = validate(R3_TABLE)
        assert q.apply(0, 1) == 2
        assert q.apply(1, 0) == 2


def load_int_rows(text):
    """The interchange format read with int() on every entry, then validate:
    the grammar load_table keeps."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError("empty quandle file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"first line must be the order, got {lines[0]!r}") from None
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for line in lines[1:]:
        row = [int(t) for t in line.split()]
        if len(row) != n:
            raise ValueError(f"row {line!r} does not have {n} entries")
        table.append(row)
    return validate(table)


def load_outcome(load, text):
    """The table `load(text)` gives, or the type and message of its error."""
    try:
        return load(text).table
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def table_texts(draw, q):
    """q's table written with what int() reads: signs, leading zeros,
    underscores, blanks, and in about half the texts Arabic-Indic and
    Devanagari digits and no-break spaces; now and then a token, a row or
    the order line is malformed."""
    plain = draw(st.booleans())  # all ASCII, what the C parser reads
    digit = (lambda d: d) if plain else (
        lambda d: draw(st.sampled_from([d] * 4 + [chr(0x660 + int(d)), chr(0x966 + int(d))]))
    )
    blank = st.sampled_from([" ", "  ", "\t", " \t"] + ([] if plain else ["\xa0"]))
    noise = st.text(alphabet="0123456789+-_ \t.x" + ("" if plain else "\xa0٣Ǿ"), max_size=4)

    def spell(v):
        digits = [digit(d) for d in str(v)]
        joiner = draw(st.sampled_from(["", "", "_"])) if len(digits) > 1 else ""
        sign = draw(st.sampled_from(["", "", "", "+", "0"] + (["-"] if v == 0 else [])))
        return sign + joiner.join(digits)

    def join(tokens):
        return draw(st.sampled_from(["", " ", "\t"])) + "".join(t + draw(blank) for t in tokens)

    rows = []
    for row in q.array.tolist():
        tokens = [spell(v) for v in row]
        if draw(st.integers(0, 19)) == 0:  # one malformed row in twenty
            i = draw(st.integers(0, len(tokens) - 1))
            tokens[i : i + 1] = draw(st.sampled_from(
                [[], [tokens[i], "0"], [draw(noise)], [str(2**64)], ["-1"], [str(q.order)]]
            ))
        line = join(tokens)
        if draw(st.integers(0, 9)) == 0:
            line += draw(st.sampled_from(["# row", "#", "#0 1"]))
        rows.append(line)
        if draw(st.integers(0, 9)) == 0:
            rows.append(draw(st.sampled_from(["", "# comment", " \t"])))
    order = draw(st.sampled_from([str(q.order)] * 6 + [spell(q.order), str(q.order + 1), draw(noise)]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(["# a table", order] + rows) + end


class TestSerialization:
    def test_round_trip(self):
        q = families.dihedral(5)
        text = dump_table(q, comment="five reflections")
        again = load_table(text)
        assert again.table == q.table

    def test_dump_writes_the_rows_of_the_array(self):
        # the bytes of the rows of the tuple view, which is not built
        from quandles.groups import named_group

        for q in (families.trivial(1), families.dihedral(5), families.spherical(2, 3),
                  families.core(named_group("dihedral:5"))):
            text = dump_table(q, comment="two\nlines")
            assert "table" not in vars(q)
            rows = "".join(" ".join(str(v) for v in row) + "\n" for row in q.table)
            assert text == f"# two\n# lines\n{q.order}\n" + rows
            assert load_table(text) == q

    def test_comments_and_blank_lines(self):
        text = "# header\n\n3\n0 2 1  # row\n2 1 0\n1 0 2\n"
        assert load_table(text).table == tuple(tuple(r) for r in R3_TABLE)

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("", ValueError, "empty quandle file"),
            ("# a comment\n\n  \n", ValueError, "empty quandle file"),
            ("x\n", ValueError, "first line must be the order, got 'x'"),
            ("2\n0 0\n", ValueError, "expected 2 table rows, found 1"),
            ("1\n0\n0\n", ValueError, "expected 1 table rows, found 2"),
            ("-1\n", ValueError, "expected -1 table rows, found 0"),
            ("2\n0 1\n1\n", ValueError, "row '1' does not have 2 entries"),
            ("2\n0 1 1\n1 0\n", ValueError, "row '0 1 1' does not have 2 entries"),
            ("2\n0 1 1\n1 0 1\n", ValueError, "row '0 1 1' does not have 2 entries"),
            ("3\n0 1\n1 0\n2 2\n", ValueError, "row '0 1' does not have 3 entries"),
            ("3\n0 2 # 1\n2 1 0\n1 0 2\n", ValueError, "row '0 2' does not have 3 entries"),
            ("1\n3.0\n", ValueError, "invalid literal for int() with base 10: '3.0'"),
            ("1\n0x1\n", ValueError, "invalid literal for int() with base 10: '0x1'"),
            ("1\n_0\n", ValueError, "invalid literal for int() with base 10: '_0'"),
            # a C parser that asks isdigit() of a non-ASCII character reads
            # past the table of the C locale, and may take this for a digit
            ("1\nǾ\n", ValueError, "invalid literal for int() with base 10: 'Ǿ'"),
            # the first failing row is named, a bad token before a short row
            ("3\n0 2 1\n3.0 1 0\n1\n", ValueError, "invalid literal for int() with base 10: '3.0'"),
            ("2\n1\n3.0 1\n", ValueError, "row '1' does not have 2 entries"),
            ("2\n0 18446744073709551616\n1 1\n", AxiomViolation,
             "axiom (ii) fails: entry 18446744073709551616 outside 0..1"),
            ("2\n0 -1\n1 1\n", AxiomViolation, "axiom (ii) fails: entry -1 outside 0..1"),
            ("2\n0 1\n1 -9223372036854775809\n", AxiomViolation,
             "axiom (ii) fails: entry -9223372036854775809 outside 0..1"),
            ("0\n", AxiomViolation, "axiom (i) fails: empty carrier"),
            ("2\n1 0\n0 1\n", AxiomViolation, "axiom (i) fails: 0 <| 0 == 1 != 0"),
        ],
    )
    def test_errors(self, text, error, message):
        with pytest.raises(error) as exc:
            load_table(text)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_a_parse_that_warns_goes_to_int(self, monkeypatch):
        # numpy releases that read "0.0" as the integer 0 say so with a
        # DeprecationWarning; such a parse is not kept
        def loadtxt(rows, **kwargs):
            warnings.warn("parsing an integer via a float", DeprecationWarning)
            return np.zeros((len(rows), 1), dtype=np.int64)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with pytest.raises(ValueError) as exc:
            load_table("1\n0.0\n")
        assert str(exc.value) == "invalid literal for int() with base 10: '0.0'"

    def test_an_entry_past_the_digit_limit_is_refused_as_int_refuses_it(self):
        digits = "1" * 5000
        with pytest.raises(ValueError) as expected:
            int(digits)
        with pytest.raises(ValueError) as exc:
            load_table(f"1\n{digits}\n")
        assert str(exc.value) == str(expected.value)

    @pytest.mark.parametrize(
        "text",
        [
            "1\n0\n",
            "1\n+0\n",
            "1\n-0\n",
            "1\n000\n",
            "1\n0_0\n",
            "1\n٠\n",
            "  1  \n\t0\t\n",
            "1\r\n0\r\n",
        ],
    )
    def test_order_one(self, text):
        assert load_table(text) == families.trivial(1)

    @pytest.mark.parametrize(
        "name,sep,end",
        [
            ("spaces", " ", "\n"),
            ("tabs", "\t", "\n"),
            ("mixed blanks", " \t  ", "\n"),
            ("no-break spaces", "\xa0", "\n"),
            ("CRLF", " ", "\r\n"),
        ],
    )
    def test_separators_and_line_ends(self, name, sep, end):
        q = families.dihedral(5)
        text = end.join([str(q.order)] + [sep.join(map(str, row)) for row in q.array.tolist()])
        assert load_table(text + end) == q, name

    def test_tokens_int_reads(self):
        # +3, 1_0 and the Arabic-Indic 3 are entries as int() reads them
        q = families.dihedral(11)
        rows = [list(map(str, row)) for row in q.array.tolist()]
        spelled = {"3": ["+3", "٣", "0003"], "10": ["1_0", "+1_0", "١٠"]}
        for x, row in enumerate(rows):
            for y, token in enumerate(row):
                if token in spelled:
                    row[y] = spelled[token][(x + y) % len(spelled[token])]
        text = "\n".join(["11"] + [" ".join(row) for row in rows]) + "\n"
        assert load_table(text) == q

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_loads_as_int_rows_validate(self, data):
        # the C parse and its fallback give what validate gives on rows of
        # int() values, or raise what reading the rows with int() raises
        tables = [families.trivial(1), families.trivial(2), families.dihedral(3),
                  families.dihedral(4), dihedral3_and_two_points(), families.dihedral(11)]
        text = data.draw(table_texts(data.draw(st.sampled_from(tables))), label="text")
        assert load_outcome(load_table, text) == load_outcome(load_int_rows, text)


class TestMorphisms:
    def test_identity_is_covering(self):
        q = validate(R3_TABLE)
        assert is_covering(list(range(3)), q, q)

    def test_constant_to_singleton_is_not_covering(self):
        # a covering needs equal fibers to act equally; the three columns
        # of the dihedral quandle differ, so collapsing them all fails
        q = validate(R3_TABLE)
        single = families.trivial(1)
        assert is_homomorphism([0, 0, 0], q, single)
        assert not is_covering([0, 0, 0], q, single)

    def test_non_surjective_raises(self):
        from quandles.core import NotSurjective

        q = validate(R3_TABLE)
        t2 = families.trivial(2)
        with pytest.raises(NotSurjective):
            is_covering([0, 0, 0], q, t2)

    def test_non_homomorphism_rejected(self):
        q = validate(R3_TABLE)
        assert not is_homomorphism([0, 1, 1], q, q)

    def test_folding_dihedral6_onto_dihedral3(self):
        # reduction mod 3 is a covering of R3 by R6
        r6 = families.dihedral(6)
        r3 = families.dihedral(3)
        f = [x % 3 for x in range(6)]
        assert is_covering(f, r6, r3)


# the connected catalogue entries whose generating sets (|S| = 8 and 6)
# put the isomorphism search past its cell cap
CAPPED = ("symplectic:g1:q8", "spherical:n2:q7")


class TestIsomorphism:
    def test_dihedral3_is_linear(self):
        spec = families.AlexanderModuleSpec.scalar((3,), -1)
        assert find_isomorphism(validate(R3_TABLE), families.alexander(spec)) is not None

    def test_distinguishes_same_order(self):
        assert find_isomorphism(validate(R3_TABLE), families.trivial(3)) is None

    def test_isomorphism_is_bijective_homomorphism(self):
        spec = families.AlexanderModuleSpec.scalar((5,), 2)
        a = families.alexander(spec)
        # relabel by a fixed permutation and search for the isomorphism back
        perm = [2, 4, 1, 0, 3]
        inv = [perm.index(i) for i in range(5)]
        table = [
            [perm[a.apply(inv[x], inv[y])] for y in range(5)] for x in range(5)
        ]
        b = validate(table)
        f = find_isomorphism(a, b)
        assert f is not None
        assert is_homomorphism(f, a, b)
        assert sorted(f) == list(range(5))

    def test_disconnected_inputs_are_refused(self):
        with pytest.raises(ValueError, match="connected"):
            find_isomorphism(families.trivial(3), families.trivial(3))

    def test_connected_against_disconnected_is_none(self):
        # R_2 swaps 0 and 1, R_0 and R_1 are the identity: type 2, orbits {0, 1}, {2}
        swap = validate([[0, 0, 1], [1, 1, 0], [2, 2, 2]])
        r3 = validate(R3_TABLE)
        assert (swap.order, swap.type, r3.type) == (3, 2, 2)
        assert find_isomorphism(r3, swap) is None
        assert find_isomorphism(swap, r3) is None

    def test_agrees_with_brute_force(self):
        # every ordered same-order pair of connected quandles of order <= 7
        # against all n! bijections, each checked on all n^2 cells
        scalar = {(n, t): families.alexander(families.AlexanderModuleSpec.scalar((n,), t))
                  for n in (5, 7) for t in range(2, n)}
        assert find_isomorphism(scalar[5, 2], scalar[5, 3]) is None
        qs = [q for _, q in catalogue() if q.order <= 7 and q.is_connected()]
        qs += scalar.values()
        pairs = [(a, b) for a in qs for b in qs if a.order == b.order]
        found = 0
        for a, b in pairs:
            bijections = np.array(list(itertools.permutations(range(a.order))))
            images = b.array[bijections[:, :, None], bijections[:, None, :]]
            respects = bijections[:, a.array] == images
            exists = bool(respects.all(axis=(1, 2)).any())
            assert (find_isomorphism(a, b) is not None) == exists
            found += exists
        assert (len(pairs), found) == (161, 75)

    def test_finds_seeded_relabelings(self):
        rng = random.Random(0)
        for key, q in catalogue():
            if not q.is_connected() or key in CAPPED:
                continue
            r, _ = relabeled(q, rng)
            f = find_isomorphism(q, r)
            assert f is not None and sorted(f) == list(range(q.order)), key
            assert is_homomorphism(f, q, r), key

    @pytest.mark.parametrize("key", CAPPED)
    def test_cap_refuses_before_any_gather(self, key, monkeypatch):
        from quandles.grid import grid_by_key

        q = grid_by_key()[key].build()
        r, _ = relabeled(q, random.Random(0))

        def no_blocks(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(core.perms, "row_blocks", no_blocks)
        with pytest.raises(ValueError, match=f"cap is {core.ISOMORPHISM_CELLS}"):
            find_isomorphism(q, r)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8))
def test_dihedral_tables_pass_axioms(n):
    q = families.dihedral(n)
    # re-validate from the raw table to exercise the checker
    assert validate([list(r) for r in q.table]).order == n


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5))
def test_inner_generators_fix_their_point(n, x):
    q = families.dihedral(n)
    x %= n
    assert q.column(x)[x] == x  # idempotency seen through the column perms
