"""Exact integer linear algebra: Smith form, rank, cokernel, homology.

Oracles: sympy's Smith normal form on dense matrices, determinant-divisor
identities, matrices built from a chosen diagonal by unimodular operations,
and hand-checked small cases.  Every matrix given to smith_normal_form has
its transform U checked too (smith_check): unimodular, and row i of U * A
divisible by diagonal entry i, zero past the diagonal.  The unit peel on
entry arrays, which rank, cokernel and homology_at run first, is checked
against sympy and against smith_normal_form's dict elimination, and
homology_at's one peel of two blocks against the two peels apart.
"""

import random
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandles import intlin
from quandles.core import validate
from quandles.grid import grid_by_key, standard_grid
from quandles.homology import RackComplexSlice
from quandles.intlin import (
    DEFAULT_CELL_CAP,
    AbelianGroupInvariants,
    NotAComplex,
    SizeCap,
    SparseIntMatrix,
    cokernel,
    compose_is_zero,
    homology_at,
    rank,
    smith_normal_form,
)

sympy = pytest.importorskip("sympy")
from smith_check import checked_smith_form, sympy_diagonal  # noqa: E402
from sympy import ZZ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.matrices.normalforms import invariant_factors  # noqa: E402


def _det(dense) -> int:
    # exact, over ZZ; plain Matrix.det takes seconds at 100 x 100
    return int(sympy.Matrix(dense).to_DM().det())


def _random_matrix(rng, rows, cols, lo=-6, hi=6, density=0.7):
    return [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def _snf(dense) -> list[int]:
    """The Smith diagonal of dense, its U and sympy's diagonal checked."""
    return checked_smith_form(dense)[0]


class TestSmithNormalForm:
    def test_known_diagonal(self):
        # classic textbook example with invariant factors 2 | 6 | 12
        dense = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
        assert _snf(dense) == [2, 6, 12]

    def test_divisibility_chain(self):
        rng = random.Random(11)
        for _ in range(40):
            dense = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            diag = _snf(dense)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0
            assert all(d > 0 for d in diag)

    def test_matches_sympy(self):
        rng = random.Random(23)
        for _ in range(30):
            dense = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert _snf(dense) == sympy_diagonal(dense), f"disagree on {dense}"

    def test_transforms_are_unimodular_and_diagonalize(self):
        rng = random.Random(37)
        for _ in range(20):
            checked_smith_form(_random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5)))

    def test_product_of_invariants_is_determinant(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 5)
            dense = _random_matrix(rng, n, n, density=1.0)
            d = _det(dense)
            diag = _snf(dense)
            prod = 1
            for v in diag:
                prod *= v
            if d == 0:
                assert len(diag) < n
            else:
                assert prod == abs(d)

    def test_first_invariant_is_entry_gcd(self):
        import math

        rng = random.Random(41)
        for _ in range(25):
            dense = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
            entries = [v for row in dense for v in row if v]
            diag = _snf(dense)
            if entries:
                assert diag[0] == math.gcd(*entries) if len(entries) > 1 else abs(entries[0])
            else:
                assert diag == []


def _sparse_matrix(rng, rows, cols, per_col, values):
    """A dense listing of a matrix with per_col entries from values per column."""
    dense = [[0] * cols for _ in range(rows)]
    for c in range(cols):
        for r in rng.sample(range(rows), per_col):
            dense[r][c] = rng.choice(values)
    return dense


def _with_duplicate_and_zero_columns(rng, dense, extra):
    """Append copies of random columns and zero columns; the column lattice,
    hence the Smith diagonal, stays the same."""
    cols = len(dense[0])
    picks = [rng.randrange(cols) for _ in range(extra)]
    return [row + [row[c] for c in picks] + [0] * extra for row in dense]


def _from_diagonal(rng, rows, cols, diag):
    """A sparse matrix with Smith diagonal diag: the diagonal matrix under
    random elementary row and column operations, rows and columns shuffled."""
    dense = [[0] * cols for _ in range(rows)]
    for i, d in enumerate(diag):
        dense[i][i] = d
    for _ in range(rows // 2):
        i, j = rng.sample(range(rows), 2)
        k = rng.choice((-2, -1, 1, 2))
        dense[i] = [a + k * b for a, b in zip(dense[i], dense[j])]
    for _ in range(cols // 2):
        i, j = rng.sample(range(cols), 2)
        k = rng.choice((-2, -1, 1, 2))
        for row in dense:
            row[i] += k * row[j]
    rng.shuffle(dense)
    order = list(range(cols))
    rng.shuffle(order)
    return [[row[c] for c in order] for row in dense]


class TestSparseSmithForm:
    """Matrices of 70-150 rows, large enough to run the unit-pivot peel and
    the Euclidean elimination of its residual."""

    def test_matches_sympy_with_unit_and_non_unit_entries(self):
        rng = random.Random(101)
        for rows, cols, per_col, values in (
            (70, 90, 3, (1, -1, 1, -1, 2, 3)),
            (90, 70, 2, (1, -1, 2, -3, 4)),
            (100, 80, 2, (1, -1, 2, 6)),
        ):
            dense = _sparse_matrix(rng, rows, cols, per_col, values)
            dense = _with_duplicate_and_zero_columns(rng, dense, 10)
            assert _snf(dense) == sympy_diagonal(dense)

    def test_no_unit_entry_matches_sympy(self):
        rng = random.Random(103)
        for rows, cols, values in ((70, 100, (2, -2, 3, -3, 4, 6)), (80, 70, (2, -3, 4, 9))):
            dense = _sparse_matrix(rng, rows, cols, 2, values)
            assert all(abs(v) != 1 for row in dense for v in row)
            assert _snf(dense) == sympy_diagonal(dense)

    def test_euclidean_residual_matches_sympy(self):
        # mostly without units, so nearly all the work is division with
        # remainder; includes pivots whose column holds smaller entries
        rng = random.Random(127)
        for _ in range(300):
            rows, cols = rng.randint(2, 12), rng.randint(2, 12)
            values = rng.choice(((2, 3, 4, 5, 6, 7, -9, 10), (4, 6, 9, -10, 15), (-12, 8, 18, 27)))
            dense = [
                [rng.choice(values) if rng.random() < 0.6 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            assert _snf(dense) == sympy_diagonal(dense), dense

    @pytest.mark.parametrize("rows,cols", [(70, 120), (120, 90), (150, 150)])
    def test_known_diagonal(self, rows, cols):
        rng = random.Random(rows * cols)
        rank = min(rows, cols) - 3
        diag = [1] * (rank - 6) + [2, 2, 6, 12, 12, 60]
        dense = _from_diagonal(rng, rows, cols, diag)
        dense = _with_duplicate_and_zero_columns(rng, dense, 15)
        assert _snf(dense) == diag
        # the same lattice scaled by 3 has no unit entry left
        tripled = [[3 * v for v in row] for row in dense]
        assert _snf(tripled) == [3 * d for d in diag]

    def test_square_product_is_determinant(self):
        rng = random.Random(107)
        for n, per_col, values in (
            (70, 3, (1, -1, 2, 3)),
            (80, 2, (1, -1, 2, -2, 5)),
            (75, 3, (2, 3, -4)),
        ):
            dense = _sparse_matrix(rng, n, n, per_col, values)
            diag = _snf(dense)
            d = _det(dense)
            if d:
                assert len(diag) == n and prod(diag) == abs(d)
            else:
                assert len(diag) < n

    def test_square_known_diagonal_determinant(self):
        rng = random.Random(109)
        diag = [1] * 94 + [2, 4, 4, 12, 36, 72]
        dense = _from_diagonal(rng, 100, 100, diag)
        assert abs(_det(dense)) == prod(diag)
        assert _snf(dense) == diag

    def test_matches_dense_elimination(self):
        rng = random.Random(113)
        dense = _sparse_matrix(rng, 72, 80, 2, (1, -1, 2, 3, -4))
        dense = _with_duplicate_and_zero_columns(rng, dense, 8)
        theirs = invariant_factors(DomainMatrix(dense, (72, 96), ZZ))
        assert _snf(dense) == [int(d) for d in theirs if d]


@pytest.mark.parametrize("rows,cols", [(27, 36), (30, 40), (70, 100)])
def test_transform_on_seeded_sparse_matrix(rows, cols):
    # density 0.2 with entries in {+-1, +-2, 3, 4, 6}: the transform's
    # entries grow to hundreds of bits here, past sympy's direct Smith form
    rng = random.Random(1)
    dense = [
        [rng.choice((1, -1, 2, -2, 3, 4, 6)) if rng.random() < 0.2 else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    checked_smith_form(dense)


def _peel_test_matrix(rng, rows, cols):
    """A sparse matrix with repeated and negated columns, zero columns and
    rows that hold no unit, its columns shuffled."""
    dense = _sparse_matrix(rng, rows, cols, 3, (1, -1, 1, 2, -3, 4))
    for r in rng.sample(range(rows), rows // 5):
        dense[r] = [2 * v if abs(v) == 1 else v for v in dense[r]]
    picks = [(rng.randrange(cols), rng.choice((1, -1))) for _ in range(cols // 3)]
    dense = [row + [s * row[c] for c, s in picks] + [0] * 4 for row in dense]
    order = list(range(len(dense[0])))
    rng.shuffle(order)
    return [[row[c] for c in order] for row in dense]


def _invariants(rows, diag):
    return AbelianGroupInvariants(rows - len(diag), tuple(d for d in diag if d > 1))


def _complex(rng, inner, outer):
    """(d_in, d_out) with d_out * d_in = 0: inner over zero rows, outer on
    those rows, and one random change of basis E of the carrier applied to
    both, so d_in = E [inner; 0] and d_out = [0 outer] E^-1 have the Smith
    diagonals of inner and outer."""
    k, m = len(inner), len(inner[0])
    n = k + len(outer[0])
    d_in = [list(row) for row in inner] + [[0] * m for _ in outer[0]]
    d_out = [[0] * k + list(row) for row in outer]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        d_in[i] = [a + c * b for a, b in zip(d_in[i], d_in[j])]  # row i += c row j
        for row in d_out:  # col j -= c col i
            row[j] -= c * row[i]
    return d_in, d_out


def _relabeled(q, seed):
    sigma = np.random.default_rng(seed).permutation(q.order)
    table = np.empty_like(q.array)
    table[np.ix_(sigma, sigma)] = sigma[q.array]
    return validate(table)


class TestArrayPeel:
    """The unit peel on entry arrays: rounds of independent unit pivots,
    duplicate columns dropped, and the residual left to the dict pass."""

    @pytest.mark.parametrize("rows,cols", [(40, 60), (80, 70), (70, 100)])
    def test_rank_and_cokernel_match_sympy(self, rows, cols):
        rng = random.Random(rows * cols + 1)
        dense = _peel_test_matrix(rng, rows, cols)
        diag = sympy_diagonal(dense)
        m = SparseIntMatrix.from_dense(dense)
        assert rank(m) == len(diag)
        assert cokernel(m) == _invariants(rows, diag)
        ones, residual = intlin._peel_units(m, DEFAULT_CELL_CAP)
        assert ones and not any(abs(v) == 1 for _, _, v in residual.entries())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_homology_at_matches_sympy(self, seed):
        rng = random.Random(seed)
        inner = _peel_test_matrix(rng, 50, 60)
        outer = _sparse_matrix(rng, 10, 12, 3, (1, -1, 2, 3))
        d_in, d_out = _complex(rng, inner, outer)
        d_in, d_out = SparseIntMatrix.from_dense(d_in), SparseIntMatrix.from_dense(d_out)
        assert compose_is_zero(d_out, d_in) is None
        rank_out = len(sympy_diagonal(outer))
        assert rank(d_out) == rank_out > 0
        assert homology_at(d_in, d_out) == _invariants(62 - rank_out, sympy_diagonal(inner))

    def test_int64_guard_hands_the_rest_to_the_dict_pass(self):
        # entries near 2^29: one round's pivots fit, (P+1)·max|v|² for the
        # next round's does not, so units are left for the dict pass
        for seed in range(4):
            rng = random.Random(seed)
            dense = [
                [rng.choice((1, -1, 2, 3, 2**29 + rng.randrange(100))) if rng.random() < 0.3 else 0
                 for _ in range(16)]
                for _ in range(12)
            ]
            m = SparseIntMatrix.from_dense(dense)
            ones, residual = intlin._peel_units(m, DEFAULT_CELL_CAP)
            assert ones and any(abs(v) == 1 for _, _, v in residual.entries())
            diag = sympy_diagonal(dense)
            assert [1] * ones + intlin._snf_diagonal_sparse(residual) == diag
            assert cokernel(m) == _invariants(12, diag)

    def test_entries_beyond_int64_stay_exact(self):
        m = SparseIntMatrix.from_dense([[2**70, 1, 0], [0, 3, 2**64]])
        assert intlin._peel_units(m, DEFAULT_CELL_CAP) == (0, m)
        assert cokernel(m) == _invariants(2, sympy_diagonal(m.to_dense()))
        # 2^32 * 2^32 is 0 in int64: the product must be taken in Python ints
        square = SparseIntMatrix.from_dense([[2**32]])
        assert compose_is_zero(square, square) == (0, {0: 2**64})
        cancel = compose_is_zero(
            SparseIntMatrix.from_dense([[2**70, 1]]), SparseIntMatrix.from_dense([[1], [-(2**70)]])
        )
        assert cancel is None

    def test_a_constant_hash_leaves_exactness_to_the_compare(self, monkeypatch):
        monkeypatch.setattr(
            intlin, "_column_hashes", lambda rows, values, starts: np.zeros(len(starts), np.uint64)
        )
        rng = random.Random(17)
        dense = _peel_test_matrix(rng, 40, 60)
        m = SparseIntMatrix.from_dense(dense)
        rs, cs, vs, counts = intlin._drop_duplicate_columns(*m._arrays())
        assert counts.tolist() == np.unique(cs, return_counts=True)[1].tolist()
        columns = list(zip(*dense))
        kept = set(cs.tolist())
        dropped = [c for c, col in enumerate(columns) if c not in kept and any(col)]
        assert dropped and len(kept) > len({len(columns[c]) - columns[c].count(0) for c in kept})
        for c in dropped:
            earlier = {columns[b] for b in kept if b < c}
            assert columns[c] in earlier or tuple(-v for v in columns[c]) in earlier, c
        assert cokernel(m) == _invariants(40, sympy_diagonal(dense))

    def test_only_columns_of_one_count_are_compared(self, monkeypatch):
        # with one hash for all, the count in the key keeps the compare of
        # column 2 from running on past column 0 into column 1
        monkeypatch.setattr(
            intlin, "_column_hashes", lambda rows, values, starts: np.zeros(len(starts), np.uint64)
        )
        m = SparseIntMatrix.from_dense([[1, 0, 1], [0, 2, 2], [0, 5, 0]])
        assert intlin._drop_duplicate_columns(*m._arrays())[1].tolist() == m._arrays()[1].tolist()
        assert cokernel(m) == AbelianGroupInvariants(0, (10,))

    def test_duplicate_columns_up_to_sign_leave(self):
        rng = random.Random(19)
        dense = _peel_test_matrix(rng, 40, 60)
        m = SparseIntMatrix.from_dense(dense)
        _, cs, _, counts = intlin._drop_duplicate_columns(*m._arrays())
        assert counts.tolist() == np.unique(cs, return_counts=True)[1].tolist()
        columns = list(zip(*dense))
        expected = [
            c for c, col in enumerate(columns)
            if any(col) and all(columns[b] not in (col, tuple(-v for v in col)) for b in range(c))
        ]
        assert sorted(set(cs.tolist())) == expected

    def test_the_same_peel_whatever_the_entry_order(self):
        rng = random.Random(23)
        dense = _peel_test_matrix(rng, 50, 70)
        entries = SparseIntMatrix.from_dense(dense).entries()
        peels = set()
        for seed in range(4):
            random.Random(seed).shuffle(entries)
            rs, cs, vs = (np.array(a) for a in zip(*entries))
            m = SparseIntMatrix.from_arrays(50, len(dense[0]), rs, cs, vs)
            ones, residual = intlin._peel_units(m, DEFAULT_CELL_CAP)
            peels.add((ones, tuple(residual.entries())))
            assert cokernel(m) == _invariants(50, sympy_diagonal(dense))
        assert len(peels) == 1

    def test_a_round_past_the_cap_raises_before_it_is_built(self):
        # needed is the surviving entries plus the round's update; raising the
        # cap to each needed in turn reaches the peel's peak, which admits it
        rng = random.Random(29)
        dense = _peel_test_matrix(rng, 40, 60)
        m = SparseIntMatrix.from_dense(dense)
        cap, seen = 10, []
        while True:
            try:
                ones, residual = intlin._peel_units(m, cap)
                break
            except SizeCap as exc:
                assert exc.cap == cap and exc.needed > cap
                seen.append(cap := exc.needed)
        assert seen and cap == max(seen)
        assert [1] * ones + intlin._snf_diagonal_sparse(residual) == sympy_diagonal(dense)
        for run in (rank, cokernel, lambda a, cap: homology_at(a, SparseIntMatrix(0, 40), cap)):
            with pytest.raises(SizeCap):
                run(m, cap=cap - 1)
            run(m, cap=cap)


def _least_cap(run) -> int:
    """The least cap under which run(cap) raises no SizeCap."""
    cap = 0
    while True:
        try:
            run(cap)
            return cap
        except SizeCap as exc:
            cap = exc.needed


class TestBlockPeel:
    """homology_at's one peel of diag(boundary_in, rank block): each block's
    diagonal as its own peel gives it, and as sympy's Smith form."""

    @pytest.mark.parametrize("seed", range(4))
    def test_same_diagonals_and_residuals_as_two_peels(self, seed, monkeypatch):
        rng = random.Random(seed)
        dense_a = _peel_test_matrix(rng, rng.randint(20, 50), rng.randint(30, 60))
        dense_b = _peel_test_matrix(rng, rng.randint(10, 40), rng.randint(20, 50))
        a, b = SparseIntMatrix.from_dense(dense_a), SparseIntMatrix.from_dense(dense_b)
        residuals = []
        dict_pass = intlin._snf_diagonal_sparse
        monkeypatch.setattr(
            intlin, "_snf_diagonal_sparse", lambda m: residuals.append(m) or dict_pass(m)
        )
        diag_a, diag_b = intlin._block_diagonals(a, b, DEFAULT_CELL_CAP)
        assert diag_a == intlin._diagonal(a, DEFAULT_CELL_CAP) == sympy_diagonal(dense_a)
        assert diag_b == intlin._diagonal(b, DEFAULT_CELL_CAP) == sympy_diagonal(dense_b)
        assert len(diag_b) == rank(b)
        # the same pivots round by round: the residuals split off the joint
        # peel are those of the peels apart
        alone = [intlin._peel_units(m, DEFAULT_CELL_CAP)[1] for m in (a, b)]
        assert residuals[:2] == alone

    def test_an_object_block_is_peeled_apart(self):
        rng = random.Random(5)
        dense_a = [[2**70, 1, 0], [0, 3, 2**64]]
        dense_b = _peel_test_matrix(rng, 30, 40)
        a, b = SparseIntMatrix.from_dense(dense_a), SparseIntMatrix.from_dense(dense_b)
        assert a._arrays()[2].dtype == object
        for x, y, dx, dy in ((a, b, dense_a, dense_b), (b, a, dense_b, dense_a)):
            assert intlin._block_diagonals(x, y, DEFAULT_CELL_CAP) == (
                sympy_diagonal(dx),
                sympy_diagonal(dy),
            )

    def test_the_cap_counts_both_blocks(self):
        rng = random.Random(31)
        a = SparseIntMatrix.from_dense(_peel_test_matrix(rng, 40, 60))
        b = SparseIntMatrix.from_dense(_peel_test_matrix(rng, 30, 50))
        alone = max(_least_cap(lambda cap: intlin._peel_units(m, cap)) for m in (a, b))
        joint = _least_cap(lambda cap: intlin._block_diagonals(a, b, cap))
        assert joint > alone
        with pytest.raises(SizeCap) as exc:
            intlin._block_diagonals(a, b, joint - 1)
        assert exc.value.needed == joint

    @pytest.mark.parametrize("seed", [1, 2])
    def test_homology_at_reads_the_rank_off_out_cols(self, seed):
        # d_out gains the n - 1 columns 2 c_j - c_{j+1}, so its first n
        # columns still span its image; d_in gains zero rows to match
        rng = random.Random(seed)
        inner = _peel_test_matrix(rng, 50, 60)
        outer = _sparse_matrix(rng, 10, 12, 3, (1, -1, 2, 3))
        d_in, d_out = _complex(rng, inner, outer)
        n = len(d_in)
        d_out = [row + [2 * row[c] - row[c + 1] for c in range(n - 1)] for row in d_out]
        d_in = d_in + [[0] * len(d_in[0]) for _ in range(n - 1)]
        d_in, d_out = SparseIntMatrix.from_dense(d_in), SparseIntMatrix.from_dense(d_out)
        carrier = 2 * n - 1
        expected = _invariants(carrier - len(sympy_diagonal(outer)), sympy_diagonal(inner))
        assert homology_at(d_in, d_out) == expected
        assert homology_at(d_in, d_out, DEFAULT_CELL_CAP, np.arange(n)) == expected
        one_column = homology_at(d_in, d_out, DEFAULT_CELL_CAP, np.arange(1))
        assert one_column.free_rank > expected.free_rank


@pytest.mark.parametrize("key", [e.key for e in standard_grid() if e.order <= 30])
def test_catalogue_d3_diagonal_matches_smith_normal_form(key):
    q = grid_by_key()[key].build()
    for table in (q, _relabeled(q, len(key))):
        d3 = RackComplexSlice(table).boundary(3)
        assert intlin._diagonal(d3, DEFAULT_CELL_CAP) == smith_normal_form(d3)[0], key


def _argsort(key):
    return np.argsort(key, kind="stable")


class TestStableOrder:
    """_stable_order, the one sort of the unit peel: a value sort of the key
    packed with each position, or numpy's stable argsort past the budget."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_stable_argsort_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        key = rng.integers(0, [3, 50, 2**40][seed % 3], rng.integers(2, 3000))
        assert np.array_equal(intlin._stable_order(key), _argsort(key))

    def test_matches_stable_argsort_across_blocks(self):
        # more keys than BLOCK_CELLS: the positions are or-ed in three blocks
        key = np.random.default_rng(8).integers(0, 1000, 2 * intlin.BLOCK_CELLS + 12345)
        assert np.array_equal(intlin._stable_order(key), _argsort(key))

    @pytest.mark.parametrize("key", [[], [7], [0]])
    def test_empty_and_length_one(self, key):
        key = np.array(key, dtype=np.int64)
        assert intlin._stable_order(key).tolist() == _argsort(key).tolist()

    def test_the_bit_budget_and_the_fallback(self, monkeypatch):
        # five positions take b = 3 bits, so keys up to 2^60 - 1 are packed
        calls, argsort = [], np.argsort
        monkeypatch.setattr(intlin.np, "argsort", lambda *a, **k: calls.append(a) or argsort(*a, **k))
        at_budget = np.array([2**60 - 1, 0, 2**60 - 1, 5, 0])
        assert intlin._stable_order(at_budget).tolist() == [1, 4, 3, 0, 2] and not calls
        over = np.array([2**60, 0, 2**60, 5, 0])
        assert intlin._stable_order(over).tolist() == [1, 4, 3, 0, 2] and len(calls) == 1
        past = np.array([2**60, 0, 2**60, 2**62, 0])
        assert intlin._stable_order(past).tolist() == [1, 4, 0, 2, 3] and len(calls) == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_candidates_rank_as_the_lexsort_did(self, seed):
        rng = random.Random(seed)
        m = SparseIntMatrix.from_dense(_peel_test_matrix(rng, 60, 80))
        rs, cs, vs, counts = intlin._drop_duplicate_columns(*m._arrays())
        expected = _lexsort_candidates(m.rows, m.cols, rs, cs, vs)
        assert len(expected) > 10
        assert intlin._ranked_candidates(m.rows, m.cols, rs, cs, vs, counts).tolist() == expected


def _lexsort_candidates(nrows, ncols, rs, cs, vs):
    """Each row's and then each column's best unit by (cost, row, column),
    ranked by np.lexsort and np.unique."""
    unit = np.flatnonzero((vs == 1) | (vs == -1))
    _, counts = intlin._column_runs(cs)
    cost = (np.bincount(rs, minlength=nrows)[rs[unit]] - 1) * (np.repeat(counts, counts)[unit] - 1)
    least = np.full(nrows, np.iinfo(np.int64).max)
    np.minimum.at(least, rs[unit], cost)
    unit = unit[cost == least[rs[unit]]]
    first = np.full(nrows, ncols)
    np.minimum.at(first, rs[unit], cs[unit])
    unit = unit[cs[unit] == first[rs[unit]]]
    ranked = unit[np.lexsort((cs[unit], rs[unit], least[rs[unit]]))]
    return ranked[np.sort(np.unique(cs[ranked], return_index=True)[1])].tolist()


@pytest.mark.parametrize("key", [e.key for e in standard_grid() if e.order <= 30])
def test_catalogue_peel_is_the_stable_argsort_peel(key, monkeypatch):
    # d3|S, the input of H2, and d4|S, of H3, up to order 10
    q = grid_by_key()[key].build()
    complex_ = RackComplexSlice(q)
    boundaries = [complex_.restricted_boundary(k) for k in (3, 4) if k == 3 or q.order <= 10]
    peels = [intlin._peel_units(m, DEFAULT_CELL_CAP) for m in boundaries]
    monkeypatch.setattr(intlin, "_stable_order", _argsort)
    for m, (ones, residual) in zip(boundaries, peels):
        assert (ones, residual) == intlin._peel_units(m, DEFAULT_CELL_CAP), key


class TestRankAndKernel:
    def test_rank_matches_sympy(self):
        rng = random.Random(7)
        for _ in range(30):
            dense = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            m = SparseIntMatrix.from_dense(dense)
            assert rank(m) == sympy.Matrix(dense).rank()
            assert m.cols - rank(m) == len(sympy.Matrix(dense).nullspace())

    def test_zero_matrix(self):
        m = SparseIntMatrix(3, 4)
        assert rank(m) == 0
        assert _snf(m.to_dense()) == []


class TestCokernel:
    def test_cyclic(self):
        m = SparseIntMatrix.from_dense([[4]])
        assert cokernel(m) == AbelianGroupInvariants(0, (4,))

    def test_mixed(self):
        # Z^3 / <(2,0,0),(0,3,0)> = Z/2 + Z/3 + Z = Z/6 + Z as invariants
        m = SparseIntMatrix.from_dense([[2, 0], [0, 3], [0, 0]])
        inv = cokernel(m)
        assert inv.free_rank == 1
        assert inv.torsion == (6,)

    def test_full_lattice(self):
        m = SparseIntMatrix.from_dense([[1, 0], [0, 1]])
        assert cokernel(m) == AbelianGroupInvariants(0, ())

    def test_order(self):
        m = SparseIntMatrix.from_dense([[2, 1], [0, 6]])
        inv = cokernel(m)
        assert inv.order() == 12

    def test_matches_sympy(self):
        rng = random.Random(29)
        for _ in range(60):
            dense = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), density=0.5)
            diag = sympy_diagonal(dense)
            inv = cokernel(SparseIntMatrix.from_dense(dense))
            assert inv.free_rank == len(dense) - len(diag)
            assert inv.torsion == tuple(d for d in diag if d > 1)


class TestInvariants:
    def test_normalization_rejects_non_divisor_chain(self):
        with pytest.raises(ValueError):
            AbelianGroupInvariants(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroupInvariants(0, (1,))
        with pytest.raises(ValueError):
            AbelianGroupInvariants(-1, ())

    def test_str_forms(self):
        assert str(AbelianGroupInvariants(0, ())) == "0"
        assert str(AbelianGroupInvariants(1, ())) == "Z"
        assert str(AbelianGroupInvariants(2, (3,))) == "Z^2 + Z/3"



class TestHomologyAt:
    def test_circle_complex(self):
        # 1 vertex, 1 edge, no 2-cells: H_1(S^1) = Z
        d2 = SparseIntMatrix(1, 0)
        d1 = SparseIntMatrix(1, 1)  # edge boundary = 0
        assert homology_at(d2, d1) == AbelianGroupInvariants(1, ())

    def test_mod2_circle(self):
        # one 2-cell glued along the edge twice: H_1 = Z/2
        d2 = SparseIntMatrix.from_dense([[2]])
        d1 = SparseIntMatrix(1, 1)
        assert homology_at(d2, d1) == AbelianGroupInvariants(0, (2,))

    def test_rejects_non_complex(self):
        d2 = SparseIntMatrix.from_dense([[1], [0]])
        d1 = SparseIntMatrix.from_dense([[1, 1]])
        with pytest.raises(NotAComplex):
            homology_at(d2, d1)

    def test_carrier_mismatch(self):
        with pytest.raises(ValueError):
            homology_at(SparseIntMatrix(2, 1), SparseIntMatrix(1, 3))


class TestComposeIsZero:
    def test_witness(self):
        outer = SparseIntMatrix.from_dense([[1, 0]])
        inner = SparseIntMatrix.from_dense([[0, 1], [0, 0]])
        bad = compose_is_zero(outer, inner)
        assert bad is not None
        column, image = bad
        assert column == 1
        assert image == {0: 1}

    def test_zero_composite(self):
        outer = SparseIntMatrix.from_dense([[0, 0]])
        inner = SparseIntMatrix.from_dense([[1], [2]])
        assert compose_is_zero(outer, inner) is None

    def test_witness_is_least_column_with_its_whole_image(self):
        # terms given from the bottom row up; the image is still in row order
        terms = [(2, 0, 1), (1, 1, 1), (0, 2, 1), (0, 0, 1), (0, 1, -1)]
        outer = SparseIntMatrix.from_arrays(3, 3, *np.array(terms).T)
        inner = SparseIntMatrix.from_dense([[0, 5, 0, 0], [4, 5, 0, 7], [0, -2, 0, 1]])
        product = [
            [sum(a * b for a, b in zip(row, col)) for col in zip(*inner.to_dense())]
            for row in outer.to_dense()
        ]
        assert product == [[-4, -2, 0, -6], [4, 5, 0, 7], [0, 5, 0, 0]]
        column, image = compose_is_zero(outer, inner)
        assert column == 0
        assert list(image.items()) == [(0, -4), (1, 4)]
        with pytest.raises(NotAComplex) as exc:
            homology_at(inner, outer)
        assert str(exc.value) == "boundary composite is nonzero on basis column 0: {0: -4, 1: 4}"

    def test_witness_matches_dense_product(self):
        rng = random.Random(7)
        for _ in range(40):
            outer = _random_matrix(rng, rng.randint(1, 5), 4, -2, 2, 0.3)
            inner = _random_matrix(rng, 4, rng.randint(1, 5), -2, 2, 0.3)
            product = [
                [sum(a * b for a, b in zip(row, col)) for col in zip(*inner)] for row in outer
            ]
            bad = [c for c in range(len(inner[0])) if any(row[c] for row in product)]
            found = compose_is_zero(
                SparseIntMatrix.from_dense(outer), SparseIntMatrix.from_dense(inner)
            )
            if not bad:
                assert found is None
                continue
            image = {r: row[bad[0]] for r, row in enumerate(product) if row[bad[0]]}
            assert found == (bad[0], image)
            assert list(found[1]) == sorted(image)


def _from_terms(rows, cols, terms):
    return SparseIntMatrix.from_arrays(rows, cols, *np.array(terms, dtype=object).reshape(-1, 3).T)


class TestFromArrays:
    def test_same_matrix_as_entry_by_entry(self):
        m = SparseIntMatrix.from_arrays(
            2, 3, np.array([0, 1, 1]), np.array([2, 0, 2]), np.array([5, -1, 3], dtype=np.int32)
        )
        assert m == SparseIntMatrix.from_dense([[0, 0, 5], [-1, 0, 3]])
        assert all(type(v) is int for _, _, v in m.entries())

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-3, 3)), max_size=30),
        st.randoms(use_true_random=False),
    )
    def test_terms_sum_by_position_in_any_order(self, rows, cols, terms, rng):
        terms = [(r % rows, c % cols, v) for r, c, v in terms]
        # each term twice, once negated, cancels; the rest add up
        noise = [(r, c, -v) for r, c, v in terms[::2]] + terms[::2]
        shuffled = terms + noise
        rng.shuffle(shuffled)
        dense = [[0] * cols for _ in range(rows)]
        for r, c, v in terms:
            dense[r][c] += v
        m = _from_terms(rows, cols, shuffled)
        assert m.to_dense() == dense
        assert m == SparseIntMatrix.from_dense(dense)
        assert m.nnz == sum(v != 0 for row in dense for v in row)
        assert m.is_zero() == (m.nnz == 0)
        assert m.entries() == sorted(m.entries())
        rs, cs, vs = m._arrays()
        assert vs.dtype == np.int64 and vs.all()
        assert ((cs * rows + rs)[1:] > (cs * rows + rs)[:-1]).all()

    def test_a_sum_past_int64_is_exact(self):
        m = _from_terms(1, 1, [(0, 0, 2**62), (0, 0, 2**62)])
        assert m.entries() == [(0, 0, 2**63)]
        assert m._arrays()[2].dtype == object
        assert _from_terms(1, 1, [(0, 0, -(2**62)), (0, 0, -(2**62))]).entries() == [(0, 0, -(2**63))]

    def test_a_term_past_int64_gives_python_ints(self):
        m = _from_terms(2, 2, [(1, 0, 2**70), (0, 1, 3)])
        assert m._arrays()[2].dtype == object
        assert m.entries() == [(0, 1, 3), (1, 0, 2**70)]
        assert m.to_dense() == [[0, 3], [2**70, 0]]
        # a sum back inside int64 is held as int64
        back = _from_terms(2, 2, [(1, 0, 2**70), (0, 1, 3), (1, 0, 1 - 2**70)])
        assert back._arrays()[2].dtype == np.int64
        assert back == SparseIntMatrix.from_dense([[0, 3], [1, 0]])

    def test_empty_terms_give_the_zero_matrix(self):
        for m in (_from_terms(2, 3, []), SparseIntMatrix.from_arrays(2, 3, [], [], [])):
            assert m == SparseIntMatrix(2, 3) == SparseIntMatrix.from_dense([[0] * 3] * 2)
            assert m.nnz == 0 and m.is_zero() and m.entries() == []
        assert _from_terms(2, 2, [(1, 1, 4), (1, 1, -4)]) == SparseIntMatrix(2, 2)
        assert SparseIntMatrix(2, 2) != SparseIntMatrix(2, 3)

    def test_sorted_terms_are_kept_as_given(self):
        rs, cs, vs = np.array([1, 0, 1]), np.array([0, 1, 1]), np.array([2, -1, 5])
        m = SparseIntMatrix.from_arrays(2, 2, rs, cs, vs)
        assert all(a is b for a, b in zip(m._arrays(), (rs, cs, vs)))

    def test_rejects_bad_entries(self):
        def make(rows, cols, vals):
            return SparseIntMatrix.from_arrays(2, 2, np.array(rows), np.array(cols), np.array(vals))

        with pytest.raises(IndexError):
            make([0, 2], [0, 0], [1, 1])
        with pytest.raises(IndexError):
            make([0, -1], [0, 0], [1, 1])
        with pytest.raises(IndexError):
            make([0, 0], [0, 2**70], [1, 1])
        with pytest.raises(ValueError):
            make([0, 1], [0], [1, 1])
        with pytest.raises(ValueError):
            SparseIntMatrix(-1, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_agrees_with_sympy_property(rows):
    assert _snf(rows) == sympy_diagonal(rows)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**30),
)
def test_rank_bounded_and_stable_under_transpose(r, c, seed):
    rng = random.Random(seed)
    dense = _random_matrix(rng, r, c)
    m = SparseIntMatrix.from_dense(dense)
    transpose = SparseIntMatrix.from_dense(
        [[dense[i][j] for i in range(r)] for j in range(c)]
    )
    assert rank(m) == rank(transpose) <= min(r, c)
