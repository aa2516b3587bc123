"""The built-in catalogue: shape, determinism, frozen sizes, lazy rows."""

import pytest

from quandles import families, grid, groups
from quandles.cli import parse_input
from quandles.core import validate
from quandles.families import AlexanderModuleSpec
from quandles.fields import FiniteFieldSpec
from quandles.grid import CATALOGUE, grid_by_key, standard_grid
from quandles.groups import GroupTable

from alexander_specs import connected_alexander_specs, homotopy_suite_specs


def test_size_and_keys():
    entries = standard_grid()
    assert len(entries) >= 40
    keys = [e.key for e in entries]
    assert len(set(keys)) == len(keys)
    assert all(1 <= e.order <= 64 for e in entries)


def test_deterministic_order():
    first = [e.key for e in standard_grid()]
    second = [e.key for e in standard_grid()]
    assert first == second


def test_every_entry_builds_to_declared_order():
    for e in standard_grid():
        q = e.build()  # raises if the built order drifts
        assert q.order == e.order
        validate([list(r) for r in q.table])


def test_kind_coverage():
    kinds = {e.kind for e in standard_grid()}
    assert kinds == {
        "alexander",
        "dihedral",
        "trivial",
        "symplectic",
        "spherical",
        "core",
        "coxeter",
        "covering",
    }


def test_lookup_by_key():
    table = grid_by_key()
    assert table["dihedral:3"].order == 3
    assert table["symplectic:g1:q7"].order == 48


def test_connected_alexander_pool():
    specs = connected_alexander_specs(max_order=16)
    assert len(specs) >= 10
    assert all(s.size <= 16 and s.is_connected() for s in specs)


def test_homotopy_suite_spans_types():
    specs = homotopy_suite_specs()
    assert len(specs) >= 5
    types = {s.t_order() for s in specs}
    assert {2, 3, 4} <= types
    assert all(s.is_connected() for s in specs)


@pytest.mark.parametrize("key, spec, order", CATALOGUE, ids=[row[0] for row in CATALOGUE])
def test_row_is_its_family_spec(key, spec, order):
    entry = grid_by_key()[key]
    parsed = parse_input([spec])
    assert parsed.build().table == entry.build().table
    assert parsed.alexander_spec == entry.alexander_spec


def test_standard_grid_builds_nothing(monkeypatch):
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return wrapper

    builders = (
        "alexander",
        "dihedral",
        "trivial",
        "symplectic",
        "spherical",
        "core",
        "coxeter_reflection_quandle",
    )
    targets = [(families, name) for name in builders]
    targets += [
        (grid, "universal_covering_alexander"),
        (AlexanderModuleSpec, "__init__"),
        (FiniteFieldSpec, "__post_init__"),
        (GroupTable, "__init__"),
    ]
    for owner, attr in targets:
        name = f"{owner.__name__}.{attr}"
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))

    entries = standard_grid()
    by_key = grid_by_key()
    assert len(entries) == len(by_key) == len(CATALOGUE)
    assert calls == []
    # the counters see a row once it is used
    assert by_key["alexander:3:t-1"].alexander_spec.size == 3
    assert by_key["dihedral:3"].build().order == 3
    assert calls == ["AlexanderModuleSpec.__init__", "quandles.families.dihedral"]


def test_core_spec_reads_the_group_order_without_building(monkeypatch):
    calls = []
    original = groups.from_permutations

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(groups, "from_permutations", counting)
    with pytest.raises(ValueError, match=f"dihedral:5000 names a group of more than {groups.TABLE_LIMIT}"):
        grid.parse_family(["core", "group=dihedral:5000"])
    recipe = grid.parse_family(["core", "group=s3"])
    assert calls == []
    assert recipe.build().order == 6
    assert len(calls) == 1


def test_coxeter_spec_reads_the_reflection_count_without_building(monkeypatch):
    calls = []
    monkeypatch.setattr(families, "conjugation_reflections", lambda *a: calls.append(a))
    message = f"bad coxeter spec: A91 names a reflection quandle of more than {groups.TABLE_LIMIT}"
    with pytest.raises(ValueError, match=message):
        grid.parse_family(["coxeter", "type=A91"])
    for label in ("A90", "I2(4096)"):  # 4095 and 4096 reflections
        assert grid.parse_family(["coxeter", f"type={label}"]).coxeter_kind == label
    assert calls == []
