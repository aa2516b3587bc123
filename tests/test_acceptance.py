"""Acceptance suite: ten end-to-end criteria with pinned runtime bounds.

Each test prints one `ACCEPTANCE <n>: PASS` line on success (visible with
pytest -s); a failure of any assertion fails the criterion.  Runtime
bounds are asserted, not just reported.
"""

import time

from quandles import families
from quandles.adjoint import (
    ClauwensGroup,
    action_kernel,
    eisermann_h2,
    group_h2_bar,
    verify_homotopy_2,
    verify_homotopy_3,
)
from quandles.cli import main
from quandles.core import is_covering, validate
from quandles.fields import FiniteField
from quandles.grid import standard_grid
from quandles.groups import named_group
from quandles.homology import adjoint_abelianization, quandle_h2
from quandles.intlin import AbelianGroupInvariants
from quandles.perms import closure_order
from quandles.coverings import universal_covering_alexander

from alexander_specs import connected_alexander_specs, homotopy_suite_specs


class Timer:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.bound, (
                f"runtime {self.elapsed:.1f}s exceeds the {self.bound}s bound"
            )


def report(n, detail, timer=None):
    stamp = f" ({timer.elapsed:.2f}s < {timer.bound}s)" if timer else ""
    print(f"ACCEPTANCE {n}: PASS - {detail}{stamp}")


def test_criterion_01_axiom_suite():
    """Every grid constructor output passes all three axioms, < 10 s."""
    with Timer(10) as t:
        entries = standard_grid()
        assert len(entries) >= 40
        for e in entries:
            q = e.build()
            assert 1 <= q.order <= 64
            validate([list(row) for row in q.table])  # exhaustive re-check
    report(1, f"{len(entries)} quandles validated exhaustively", t)


def test_criterion_02_h2_triple_oracle():
    """Three independent H2 routes agree on every small connected linear
    quandle in the grid, < 60 s."""
    with Timer(60) as t:
        specs = connected_alexander_specs(max_order=16)
        assert len(specs) >= 10
        for spec in specs:
            chain = quandle_h2(families.alexander(spec))
            stabilizer = eisermann_h2(spec)
            presentation = ClauwensGroup(spec).coker_invariants
            assert chain == stabilizer == presentation, spec.label()
    report(2, f"{len(specs)} specs, three routes each", t)


def test_criterion_03_degree2_homotopy_identity():
    """The degree-2 chain identity holds exactly on every pair for at
    least five connected quandles covering types 2, 3 and 4, < 30 s."""
    with Timer(30) as t:
        specs = homotopy_suite_specs()
        assert len(specs) >= 5
        types = set()
        checked = 0
        for spec in specs:
            r = verify_homotopy_2(spec)  # raises IdentityFailed on any slip
            assert r.status == "pass"
            types.add(r.type)
            checked += r.tuples_checked
        assert {2, 3, 4} <= types
    report(3, f"{checked} pairs across types {sorted(types)}", t)


def test_criterion_04_degree3_residual():
    """The degree-3 residual is independent of the first argument and the
    3-cycle vanishes on repeated arguments, < 120 s."""
    with Timer(120) as t:
        checked = 0
        for spec in homotopy_suite_specs():
            r = verify_homotopy_3(spec)
            assert r.status == "pass"
            checked += r.tuples_checked
    report(4, f"{checked} triples, residual x-free and closed-form", t)


def test_criterion_05_kernel_structure():
    """The action kernel is (type * Z) x cokernel on every connected
    linear spec in the grid.  Exact."""
    specs = [
        e.alexander_spec
        for e in standard_grid()
        if e.alexander_spec is not None and e.alexander_spec.is_connected()
    ]
    assert specs
    for spec in specs:
        kernel_type, coker = action_kernel(spec)  # certifies the shape inside
        assert kernel_type == spec.t_order()
        assert coker == ClauwensGroup(spec).coker_invariants
    report(5, f"{len(specs)} connected linear specs certified")


def test_criterion_06_classical_group_orders():
    """Inner groups of the transvection quandles have order q(q^2-1), and
    the sphere-reflection inner groups match brute-force closure, < 30 s."""
    with Timer(30) as t:
        for q in (2, 3, 4, 5, 7):
            quandle = families.symplectic(1, FiniteField.of(q))
            assert quandle.inn().order == q * (q * q - 1), q
        for q in (3, 5, 7):
            quandle = families.spherical(2, FiniteField.of(q))
            chain_order = quandle.inn().order
            columns = dict.fromkeys(quandle.column(y) for y in range(quandle.order))
            brute = closure_order(quandle.order, columns)
            assert chain_order == brute, q
    report(6, "symplectic orders q(q^2-1) and spherical brute-force match", t)


def test_criterion_08_reflection_group_h2():
    """Bar-complex H2 of the small reflection groups is all 2-torsion,
    with H2(S4) = Z/2, < 120 s."""
    with Timer(120) as t:
        values = {}
        for name in ("s3", "s4", "dihedral:4", "dihedral:6"):
            h2 = group_h2_bar(named_group(name))
            assert h2.free_rank == 0
            assert all(d & (d - 1) == 0 for d in h2.torsion), (name, h2)
            values[name] = h2
        assert values["s4"] == AbelianGroupInvariants(0, (2,))
    report(8, f"h2(s4) = {values['s4']}, all torsion 2-power", t)


def test_criterion_09_covering_suite():
    """The universal cover of the order-9, T=-1 quandle: 27 elements,
    connected, type 2, H2 = 0 (it is simply connected), projection passes
    the covering predicate, < 60 s."""
    with Timer(60) as t:
        spec = families.AlexanderModuleSpec.scalar((3, 3), -1)
        inst = universal_covering_alexander(spec)
        assert inst.total.order == 27
        assert inst.total.is_connected()
        assert inst.total.type == 2
        h2 = quandle_h2(inst.total)
        assert h2 == AbelianGroupInvariants(0, ())
        assert is_covering(inst.projection, inst.total, inst.base)
    report(9, f"27-element cover, type 2, h2 = {h2}", t)


def test_criterion_10_abelianization_free():
    """The abelianized adjoint group is free of rank the number of orbits
    for every grid quandle.  Exact."""
    count = 0
    for e in standard_grid():
        q = e.build()
        ab = adjoint_abelianization(q)
        assert ab == AbelianGroupInvariants(len(q.orbits()), ()), e.key
        count += 1
    report(10, f"{count} quandles, rank equals orbit count")


def test_criterion_11_census_determinism(tmp_path, capsys):
    """Two census runs over the grid emit byte-identical reports."""
    first = tmp_path / "census1.txt"
    second = tmp_path / "census2.txt"
    assert main(["census", "--out", str(first)]) == 0
    assert main(["census", "--out", str(second)]) == 0
    capsys.readouterr()
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b and len(a) > 0
    report(11, f"{len(a)} bytes, identical across runs")
