"""Universal coverings of connected linear quandles.

Oracles: the covering axioms re-checked through the generic morphism
predicates, frozen sizes (total order = base order x presentation-cokernel
order), transport of type/connectivity/homology along the projection, and
the table tabulated one scalar product at a time against the array one.
"""

import dataclasses

import pytest

from quandles import families, perms
from quandles.adjoint import ClauwensElement, ClauwensGroup
from quandles.core import is_covering, is_homomorphism, is_isomorphic, load_table
from quandles.coverings import (
    covering_properties,
    export_covering,
    universal_covering_alexander,
)
from quandles.families import AlexanderModuleSpec
from quandles.grid import grid_by_key, parse_family, standard_grid
from quandles.homology import quandle_h2
from quandles.report import ReportDocument


FIB = AlexanderModuleSpec((2, 2), [[0, 1], [1, 1]])  # order 4, type 3
NEG33 = AlexanderModuleSpec.scalar((3, 3), -1)  # order 9, type 2

# the base of every covering:* catalogue row (written with the keys of an
# alexander row), then the bases the benchmark's adjoint workload covers
COVERING_SPECS = [
    parse_family(["alexander", *e.family_spec.split()[1:]]).alexander_spec
    for e in standard_grid()
    if e.kind == "covering"
] + [grid_by_key()[f"alexander:{k}"].alexander_spec for k in ("5,5:t-1", "3,3:t-1", "3,3:rot")]


class TestConstruction:
    def test_dihedral3_cover_is_itself(self):
        spec = AlexanderModuleSpec.scalar((3,), -1)
        inst = universal_covering_alexander(spec)
        assert inst.total.order == 3
        assert inst.fiber_size == 1

    def test_fiber_size_is_coker_order(self):
        for spec in (FIB, NEG33):
            inst = universal_covering_alexander(spec)
            model = ClauwensGroup(spec)
            assert inst.fiber_size == model.coker_order
            assert inst.total.order == spec.size * model.coker_order

    def test_projection_is_covering(self):
        inst = universal_covering_alexander(FIB)
        assert is_homomorphism(inst.projection, inst.total, inst.base)
        assert is_covering(inst.projection, inst.total, inst.base)

    def test_fibers_uniform(self):
        inst = universal_covering_alexander(NEG33)
        fibers = inst.fibers()
        assert len(fibers) == 9
        assert all(len(f) == 3 for f in fibers.values())

    def test_rejects_disconnected(self):
        spec = AlexanderModuleSpec.scalar((4,), -1)
        with pytest.raises(Exception):
            universal_covering_alexander(spec)


class TestProperties:
    def test_all_pass_for_neg33(self):
        inst = universal_covering_alexander(NEG33)
        doc = ReportDocument("covering", "0")
        covering_properties(inst, doc, cap=None)
        entries = doc.entries
        assert {e.check_id for e in entries} == {
            "total_connected",
            "type_preserved",
            "h2_torsion",
            "h2_annihilated",
            "projection_covering",
        }
        assert all(e.status == "pass" for e in entries)

    def test_total_h2_killed_by_type(self):
        inst = universal_covering_alexander(NEG33)
        h2 = quandle_h2(inst.total)
        assert h2.torsion_annihilated_by(inst.base.type)

    def test_base_h2_versus_total_h2(self):
        # the base has H2 = Z/3; the simply-connected total drops it
        assert quandle_h2(families.alexander(NEG33)).torsion == (3,)
        inst = universal_covering_alexander(NEG33)
        assert quandle_h2(inst.total).torsion == ()

    @pytest.mark.parametrize("broken", ["swapped", "constant"])
    def test_broken_projection_is_a_fail_entry(self, broken):
        inst = universal_covering_alexander(FIB)
        p = list(inst.projection)
        if broken == "swapped":
            other = next(i for i, v in enumerate(p) if v != p[0])
            p[0], p[other] = p[other], p[0]
        else:
            p = [0] * len(p)  # misses every other base element
        doc = ReportDocument("covering", "0")
        covering_properties(dataclasses.replace(inst, projection=tuple(p)), doc, cap=None)
        status = {e.check_id: e.status for e in doc.entries}
        assert status["projection_covering"] == "fail"

    def test_wrong_fiber_size_is_a_fail_entry(self):
        inst = universal_covering_alexander(NEG33)
        doc = ReportDocument("covering", "0")
        covering_properties(dataclasses.replace(inst, fiber_size=1), doc, cap=1)
        assert [e.status for e in doc.entries if e.check_id == "projection_covering"] == ["fail"]

    @pytest.mark.parametrize("spec", COVERING_SPECS, ids=str)
    def test_catalogue_and_bench_coverings_pass(self, spec):
        inst = universal_covering_alexander(spec)
        doc = ReportDocument("covering", "0")
        covering_properties(inst, doc, cap=1)  # the cap skips only the homology checks
        assert [e.status for e in doc.entries if e.check_id == "projection_covering"] == ["pass"]

    def test_size_cap_skips(self):
        inst = universal_covering_alexander(FIB)
        doc = ReportDocument("covering", "0")
        covering_properties(inst, doc, cap=10)
        skipped = [e for e in doc.entries if e.status == "skipped"]
        assert skipped, "cap of 10 cells must skip the homology checks"


class TestBasePoint:
    def test_independent_of_base_point(self):
        for spec in (FIB, AlexanderModuleSpec.scalar((3,), -1)):
            first = universal_covering_alexander(spec, base_point=0).total
            for b in range(1, spec.size):
                other = universal_covering_alexander(spec, base_point=b).total
                assert is_isomorphic(first, other, max_order=12), (spec, b)


class TestExport:
    def test_round_trip(self, tmp_path):
        inst = universal_covering_alexander(FIB)
        written = export_covering(inst, str(tmp_path))
        names = {p.split("/")[-1] for p in written}
        assert names == {"base.quandle", "total.quandle", "projection.map"}
        base = load_table((tmp_path / "base.quandle").read_text())
        total = load_table((tmp_path / "total.quandle").read_text())
        assert base.table == inst.base.table
        assert total.table == inst.total.table
        lines = [
            ln
            for ln in (tmp_path / "projection.map").read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        n, m = map(int, lines[0].split())
        assert (n, m) == (total.order, base.order)
        mapping = [0] * n
        for ln in lines[1:]:
            i, p = map(int, ln.split())
            mapping[i] = p
        assert is_covering(mapping, total, base)


def reference_covering(spec, base_point):
    """Table, labels and projection one scalar product at a time, as the
    covering was first tabulated."""
    model = ClauwensGroup(spec)
    elements = [
        ClauwensElement(0, x, alpha) for x in spec.elements() for alpha in range(model.coker_order)
    ]
    index = {g: i for i, g in enumerate(elements)}
    e_a = model.e(base_point)
    inv_ea = model.inv(e_a)
    conj = [model.mul(model.inv(h), model.mul(e_a, h)) for h in elements]
    table = tuple(tuple(index[model.mul(inv_ea, model.mul(g, c))] for c in conj) for g in elements)
    labels = tuple(
        "({};{})".format(
            ",".join(map(str, spec.coords(g.x))), ",".join(map(str, model.alpha_coords(g.alpha)))
        )
        for g in elements
    )
    return table, labels, tuple(model.act_index(base_point, g) for g in elements)


def assert_matches_reference(spec, base_point):
    inst = universal_covering_alexander(spec, base_point=base_point)
    table, labels, projection = reference_covering(spec, base_point)
    assert inst.total.table == table
    assert inst.total.labels == labels
    assert inst.projection == projection


class TestArrayTableAgainstReference:
    @pytest.mark.parametrize("spec", COVERING_SPECS, ids=str)
    def test_catalogue_and_bench_coverings(self, spec):
        for base_point in sorted({0, 1, spec.size // 2, spec.size - 1}):
            assert_matches_reference(spec, base_point)

    def test_blocks_of_rows(self, monkeypatch):
        # three rows per block: the last block is short
        monkeypatch.setattr(perms, "BLOCK_CELLS", 3 * 27)
        assert_matches_reference(NEG33, 4)

    def test_order_729_total(self):
        assert_matches_reference(AlexanderModuleSpec.scalar((3, 3, 3), -1), 0)


def test_model_checks_and_covering_make_no_scalar_products(monkeypatch):
    calls = 0
    mul = ClauwensGroup.mul

    def counted(self, g, h):
        nonlocal calls
        calls += 1
        return mul(self, g, h)

    monkeypatch.setattr(ClauwensGroup, "mul", counted)
    spec = AlexanderModuleSpec.scalar((3, 3, 3), -1)
    model = ClauwensGroup(spec)
    assert model.verify() and model.kernel() == (2, model.coker_invariants)
    assert model.central_power()
    assert universal_covering_alexander(spec).total.order == 729
    assert calls == 0
