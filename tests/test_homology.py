"""Rack/quandle chain complexes and their low-degree homology.

Oracles:
- frozen classical values (dihedral quandles, trivial quandles),
- the degree-2 splitting: rack H2 = quandle H2 + Z^(number of orbits),
- the boundary-squared identity on random chains,
- the abelianized adjoint group being free of orbit rank,
- the per-tuple boundary_chain loop, against which the array assembly of
  the boundary matrices is checked, full and restricted to the tuples
  that end in the generating set S;
- H_k from the full boundaries of that loop (and sympy's Smith form where
  it fits) against H_k from the boundary restricted to S, with the first
  entry restricted to S instead as a control that must disagree;
- the rank of d_k against the rank of its columns that end in S, which
  homology_at reads it off.
"""

import random
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

from quandles import families
from quandles.core import validate
from quandles.coverings import universal_covering_alexander
from quandles.families import AlexanderModuleSpec
from quandles.grid import grid_by_key, standard_grid
from quandles.homology import (
    QUANDLE,
    RACK,
    RackComplexSlice,
    SizeCap,
    adjoint_abelianization,
    boundary_chain,
    homology,
    quandle_h2,
)
from quandles.intlin import AbelianGroupInvariants, SparseIntMatrix, cokernel, homology_at, rank

from child_memory import child_peaks_kb
from smith_check import sympy_diagonal


def Z(rank=0, *torsion):
    return AbelianGroupInvariants(rank, tuple(torsion))


class TestFrozenValues:
    def test_dihedral3(self):
        r3 = families.dihedral(3)
        assert quandle_h2(r3) == Z()
        assert homology(r3, 2, RACK) == Z(1)

    def test_dihedral3_degree3(self):
        # the classical value: third quandle homology of the three-element
        # dihedral quandle has exactly one 3-torsion class
        r3 = families.dihedral(3)
        assert homology(r3, 3, QUANDLE) == Z(0, 3)
        assert homology(r3, 3, RACK) == Z(1, 3)

    def test_singleton(self):
        single = families.trivial(1)
        assert homology(single, 2, RACK) == Z(1)
        assert quandle_h2(single) == Z()

    def test_trivial2(self):
        t2 = families.trivial(2)
        assert homology(t2, 2, RACK) == Z(4)
        assert quandle_h2(t2) == Z(2)

    def test_dihedral4(self):
        assert quandle_h2(families.dihedral(4)) == Z(2, 2, 2)

    def test_dihedral5(self):
        assert quandle_h2(families.dihedral(5)) == Z()

    def test_connected_alexander_with_torsion(self):
        spec = AlexanderModuleSpec.scalar((3, 3), -1)
        assert quandle_h2(families.alexander(spec)) == Z(0, 3)


class TestBoundary:
    def test_boundary_of_pair(self):
        r3 = families.dihedral(3)
        chain = boundary_chain(r3, (0, 1))
        # d(x, y) = (x) - (x <| y)
        assert chain == {(0,): 1, (r3.apply(0, 1),): -1}

    def test_boundary_squares_to_zero(self):
        r3 = families.dihedral(3)
        for x in range(3):
            for y in range(3):
                for z in range(3):
                    outer = {}
                    for tup, c in boundary_chain(r3, (x, y, z)).items():
                        for t2, c2 in boundary_chain(r3, tup).items():
                            outer[t2] = outer.get(t2, 0) + c * c2
                    assert all(v == 0 for v in outer.values()), (x, y, z)

    def test_complex_certified_on_build(self):
        # the slice runs the composite-zero check internally
        slice3 = RackComplexSlice(families.dihedral(3), QUANDLE)
        assert slice3.homology(2) == Z()


def _relabeled(q, seed):
    """The same quandle with its elements renamed by a seeded permutation."""
    n = q.order
    sigma = list(range(n))
    random.Random(seed).shuffle(sigma)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[sigma[x]][sigma[y]] = sigma[q.apply(x, y)]
    return validate(table)


def _basis_by_tuples(n, degree, mode):
    tuples = product(range(n), repeat=degree)
    return [t for t in tuples if mode == RACK or all(a != b for a, b in zip(t, t[1:]))]


def _boundary_by_tuples(q, mode, degree, keep=lambda tup: True):
    """The boundary matrix built one basis tuple at a time from boundary_chain,
    on the basis tuples that `keep` accepts, in lexicographic order."""
    rows = _basis_by_tuples(q.order, degree - 1, mode)
    cols = [tup for tup in _basis_by_tuples(q.order, degree, mode) if keep(tup)]
    index = {t: i for i, t in enumerate(rows)}
    terms = [
        (index[t], j, c)
        for j, tup in enumerate(cols)
        for t, c in boundary_chain(q, tup).items()
        if t in index  # a degenerate face is dropped in quandle mode
    ]
    return SparseIntMatrix.from_arrays(len(rows), len(cols), *np.array(terms, dtype=np.int64).reshape(-1, 3).T)


def _ends_in(q):
    gens = set(q.generating_set())
    return lambda tup: tup[-1] in gens


def _check_assembly(q):
    for mode in (RACK, QUANDLE):
        c = RackComplexSlice(q, mode)
        for degree in (1, 2, 3):
            assert c.basis(degree) == _basis_by_tuples(q.order, degree, mode)
            assert c.boundary(degree) == _boundary_by_tuples(q, mode, degree), (mode, degree)
        for degree in (3, 4):
            expected = _boundary_by_tuples(q, mode, degree, _ends_in(q))
            assert c.restricted_boundary(degree) == expected, (mode, degree)


SMALL_CATALOGUE = [e.key for e in standard_grid() if e.order <= 8]


class TestAssembly:
    @pytest.mark.parametrize("key", SMALL_CATALOGUE)
    def test_matches_per_tuple_boundaries(self, key):
        _check_assembly(grid_by_key()[key].build())

    @pytest.mark.parametrize("key,seed", [("dihedral:8", 1), ("alexander:9:t2", 2), ("core:s3", 3)])
    def test_matches_per_tuple_boundaries_relabeled(self, key, seed):
        _check_assembly(_relabeled(grid_by_key()[key].build(), seed))

    def test_assembly_peak_per_face(self):
        # the face array, its kept indices and their face numbers lived on
        # through from_arrays' sort: 109 bytes per face at the peak here
        c = RackComplexSlice(grid_by_key()["symplectic:g1:q5"].build(), QUANDLE)
        cols = c._basis_codes(4, True)
        c._basis_codes(3)
        tracemalloc.start()
        try:
            c._assemble(4, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        faces = len(cols) * 2 * 4
        assert faces == 292_008
        assert peak < 95 * faces, peak / faces

    def test_basis_is_lexicographic(self):
        c = RackComplexSlice(families.dihedral(3), QUANDLE)
        assert c.basis(2) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        assert c.basis(0) == [()]
        assert len(c.basis(3)) == 3 * 2 * 2


class TestOrderSensitivity:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_relabeled_alexander9_t2_degree3(self, seed):
        # Relabeled, this d4 took 52-100 s when the peel stopped at a 64-row
        # block; it takes well under a second now, so 30 s is a wide margin.
        q = _relabeled(grid_by_key()["alexander:9:t2"].build(), seed)
        start = time.perf_counter()
        assert homology(q, 3, QUANDLE) == Z(0, 3)
        assert time.perf_counter() - start < 30


class TestSplitting:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: families.dihedral(3),
            lambda: families.dihedral(4),
            lambda: families.dihedral(6),
            lambda: families.trivial(3),
            lambda: families.alexander(AlexanderModuleSpec.scalar((5,), 2)),
            lambda: families.alexander(AlexanderModuleSpec.scalar((3, 3), -1)),
            lambda: families.core(__import__("quandles").groups.quaternion8()),
        ],
    )
    def test_rack_h2_splits_off_orbit_lattice(self, make):
        q = make()
        rack = homology(q, 2, RACK)
        quandle = quandle_h2(q)
        orbits = len(q.orbits())
        assert rack.free_rank == quandle.free_rank + orbits
        assert rack.torsion == quandle.torsion


class TestAbelianization:
    @pytest.mark.parametrize(
        "make,rank",
        [
            (lambda: families.dihedral(3), 1),
            (lambda: families.dihedral(4), 2),
            (lambda: families.trivial(2), 2),
            (lambda: families.alexander(AlexanderModuleSpec.scalar((4,), -1)), 2),
        ],
    )
    def test_free_of_orbit_rank(self, make, rank):
        q = make()
        assert adjoint_abelianization(q) == Z(rank)
        assert len(q.orbits()) == rank

    @pytest.mark.parametrize("key", [e.key for e in standard_grid()])
    def test_matches_the_per_cell_matrix(self, key):
        # the relation matrix written one cell at a time, as a term list
        q = grid_by_key()[key].build()
        n = q.order
        terms = [
            term
            for x in range(n)
            for y in range(n)
            if q.apply(x, y) != x
            for term in ((q.apply(x, y), x * n + y, 1), (x, x * n + y, -1))
        ]
        m = SparseIntMatrix.from_arrays(n, n * n, *np.array(terms, dtype=np.int64).reshape(-1, 3).T)
        assert adjoint_abelianization(q) == cokernel(m) == Z(len(q.orbits()))


class TestCaps:
    def test_size_cap_raised(self):
        q = families.dihedral(8)
        with pytest.raises(SizeCap) as exc:
            quandle_h2(q, cap=10)
        assert exc.value.needed > 10
        assert exc.value.cap == 10

    @pytest.mark.parametrize("mode", [RACK, QUANDLE])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_cap_counts_the_face_entries_built(self, mode, degree):
        # 2k entries per column: d_k in full and d_{k+1} on the tuples ending in S
        q = families.dihedral(8)
        c = RackComplexSlice(q, mode)
        d_out, d_in = c.boundary(degree), c.restricted_boundary(degree + 1)
        faces = 2 * degree * d_out.cols + 2 * (degree + 1) * d_in.cols
        assert homology(q, degree, mode, cap=faces) == c.homology(degree)
        with pytest.raises(SizeCap) as exc:
            homology(q, degree, mode, cap=faces - 1)
        assert exc.value.needed == faces

    def test_cap_is_read_before_anything_is_built(self):
        # the order-729 total of the 3,3,3 covering: d2 has 729 * 728 columns and
        # d3|S has 4 * 728^2, 14.8M face entries in all, over the default cap
        total = universal_covering_alexander(AlexanderModuleSpec.scalar((3, 3, 3), -1)).total
        c = RackComplexSlice(total, QUANDLE)
        with pytest.raises(SizeCap) as exc:
            c.homology(2)
        assert exc.value.needed == 4 * 729 * 728 + 6 * 4 * 728**2
        assert not c._boundaries

    def test_peel_fill_in_is_capped(self):
        # d4|S of symplectic:g1:q5 has 36,501 columns, about 368k face entries,
        # but its peel fills in past 1M entries; the full d4 peaked at 5.7 GB
        code = (
            "import io, contextlib\n"
            "from quandles.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    main(['homology', '--cap-cells', '1000000', '--degree', '3',"
            " 'grid:symplectic:g1:q5'])\n"
            "text = out.getvalue()\n"
            "assert 'status: skipped' in text, text\n"
            "print(text.split('data.needed_cells: ')[1].split()[0], peak_kb())\n"
        )
        needed, peak = child_peaks_kb(code)
        assert needed > 1_000_000
        assert peak < 250 * 1024, peak

    def test_h3_of_symplectic_q5_within_400_mb(self):
        code = (
            "from quandles import grid, homology\n"
            "assert str(homology(grid.grid_by_key()['symplectic:g1:q5'].build(), 3)) == 'Z/120'\n"
            "print(peak_kb())\n"
        )
        (peak,) = child_peaks_kb(code)
        assert peak < 400 * 1024, peak

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            homology(families.dihedral(3), 4)


class TestModes:
    def test_quandle_complex_drops_degenerate_cells(self):
        q = families.dihedral(3)
        rack_slice = RackComplexSlice(q, RACK)
        quandle_slice = RackComplexSlice(q, QUANDLE)
        assert len(quandle_slice.basis(2)) == 6  # 9 pairs minus 3 diagonal
        assert len(rack_slice.basis(2)) == 9

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            RackComplexSlice(families.dihedral(3), "simplicial")


def _full_homology(q, mode, degree):
    """H_degree from the full boundaries of the per-tuple loop."""
    d_in = _boundary_by_tuples(q, mode, degree + 1)
    return homology_at(d_in, _boundary_by_tuples(q, mode, degree))


def _first_entry_homology(q, mode, degree):
    """The control: the columns of d_{degree+1} whose *first* entry is in S."""
    gens = set(q.generating_set())
    d_in = _boundary_by_tuples(q, mode, degree + 1, lambda tup: tup[0] in gens)
    return homology_at(d_in, _boundary_by_tuples(q, mode, degree))


def _catalogue_cases(max_order):
    """(key, relabeling seed or None) for the catalogue entries up to max_order,
    plain and under one seeded relabeling each."""
    keys = [e.key for e in standard_grid() if e.order <= max_order]
    return [(key, None) for key in keys] + [(key, i) for i, key in enumerate(keys)]


def _build(key, seed):
    q = grid_by_key()[key].build()
    return q if seed is None else _relabeled(q, seed)


class TestRestrictedBoundary:
    """im d_{k+1} is spanned by the images of the tuples that end in S."""

    @pytest.mark.parametrize("key,seed", _catalogue_cases(12))
    def test_h2_matches_the_full_complex(self, key, seed):
        q = _build(key, seed)
        for mode in (RACK, QUANDLE):
            assert homology(q, 2, mode) == _full_homology(q, mode, 2), mode

    @pytest.mark.parametrize("key,seed", _catalogue_cases(8))
    def test_h3_matches_the_full_complex(self, key, seed):
        q = _build(key, seed)
        for mode in (RACK, QUANDLE):
            assert homology(q, 3, mode) == _full_homology(q, mode, 3), mode

    @pytest.mark.parametrize("key,seed", _catalogue_cases(12))
    def test_rank_of_d_k_is_the_rank_on_the_tuples_ending_in_s(self, key, seed):
        # the same argument one degree lower: im d_k is spanned by the d(c, s)
        q = _build(key, seed)
        for mode in (RACK, QUANDLE):
            for degree in (2, 3):
                full = _boundary_by_tuples(q, mode, degree)
                restricted = _boundary_by_tuples(q, mode, degree, _ends_in(q))
                assert rank(restricted) == rank(full), (mode, degree)

    @pytest.mark.parametrize("key", [e.key for e in standard_grid() if e.order <= 5])
    def test_h2_matches_sympy(self, key):
        q = grid_by_key()[key].build()
        for mode in (RACK, QUANDLE):
            d_in = _boundary_by_tuples(q, mode, 3).to_dense()
            d_out = _boundary_by_tuples(q, mode, 2).to_dense()
            diag = sympy_diagonal(d_in)
            free = len(d_in) - len(sympy_diagonal(d_out)) - len(diag)
            expected = AbelianGroupInvariants(free, tuple(d for d in diag if d > 1))
            assert homology(q, 2, mode) == expected, mode

    def test_restricting_the_first_entry_is_not_enough(self):
        # the mutation control: the argument needs the *last* entry in S;
        # with the first entry in S, 16 of these 84 cases get another H2
        wrong = [
            (key, mode)
            for key, seed in _catalogue_cases(12)
            if seed is None
            for mode in (RACK, QUANDLE)
            if _first_entry_homology(_build(key, seed), mode, 2) != homology(_build(key, seed), 2, mode)
        ]
        assert ("dihedral:6", QUANDLE) in wrong and len(wrong) == 16, wrong

    def test_restricted_columns_are_the_tuples_ending_in_s(self):
        q = families.dihedral(5)
        c = RackComplexSlice(q, QUANDLE)
        gens = q.generating_set()
        # (c, s) with no two equal neighbours: (n - 1)^k choices of c for each s
        assert c.restricted_boundary(3).cols == len(gens) * 4**2
        assert c.restricted_boundary(3).rows == len(c.basis(2)) == 20
        assert c.restricted_boundary(4).cols == len(gens) * 4**3

    def test_degree_guards(self):
        c = RackComplexSlice(families.dihedral(3), QUANDLE)
        for degree in (0, 4):
            with pytest.raises(ValueError):
                c.boundary(degree)
        for degree in (2, 5):
            with pytest.raises(ValueError):
                c.restricted_boundary(degree)
