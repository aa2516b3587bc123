"""Exact linear algebra over the integers.

Sparse integer matrices, Smith normal form, cokernels and homology of
two-step chain complexes.  Results are exact: values are Python ints, or
int64 only where a bound checked beforehand rules out overflow; nothing
is done in floating point or by a modular shortcut.  A sparse matrix is
its nonzero entries as three parallel arrays sorted by column, then row,
built once as the sum of a list of terms.  The Smith form of rank,
cokernel and homology_at and the check that two boundaries compose to
zero read those arrays.

Those Smith forms peel unit pivots on the arrays in rounds.  Each round
drops every column equal up to sign to an earlier one (a hash proposes
pairs, an entry-by-entry compare decides), picks unit pivots whose block
is diagonal by Markowitz cost, and eliminates them all with one
Schur-complement update, coalesced by sorting.  A round whose update could
leave int64 is not run.  What is left, with no unit or past that bound,
goes to the dict elimination with Python ints, on row dicts built from
the arrays: it peels every unit pivot (the sparsest row holding an entry
+-1 pivots there, row operations clear that column, and the row and
column leave with a 1 for the diagonal), then diagonalizes the rest by
Euclidean elimination (least absolute value first, fewest nonzeros on
ties), and gcd/lcm steps put its diagonal in divisibility order.  A rank
is the length of the diagonal.  A cap bounds the entries a round builds:
the round whose surviving entries plus its update would pass it raises
SizeCap instead.

smith_normal_form runs the dict elimination alone, because it records its
row operations as a unimodular transform U, and the adjoint model's
coordinates are read off that U.  Runs are deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import prod

import numpy as np

DEFAULT_CELL_CAP = 10_000_000
_INT64_LIMIT = 2**63


class SizeCap(RuntimeError):
    """A computation would materialize more cells than the configured cap."""

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(f"needs {needed} cells, cap is {cap}")


class NotAComplex(ValueError):
    """Raised when two maps that should compose to zero do not."""

    def __init__(self, column, image):
        self.column = column
        self.image = image
        super().__init__(
            f"boundary composite is nonzero on basis column {column}: {image}"
        )


@dataclass(frozen=True)
class AbelianGroupInvariants:
    """A finitely generated abelian group Z^free + Z/d1 + ... with d1 | d2 | ...

    Torsion entries are the invariant factors, each >= 2, in divisibility
    order.  The trivial group is (0, ()).
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion invariant {d} < 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors not a divisibility chain: {a}, {b}")

    def order(self):
        """Number of elements, or None when the group is infinite."""
        if self.free_rank:
            return None
        return prod(self.torsion) if self.torsion else 1

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class SparseIntMatrix:
    """An integer matrix, held as its nonzero entries in three parallel
    arrays (rows, cols, values) sorted by column and then row.

    `SparseIntMatrix(rows, cols)` is the zero matrix, and `from_arrays`
    builds every other one as a sum of terms; nothing changes a matrix once
    it is built.  Values are int64, or Python ints in an object array when
    an entry does not fit, so two equal matrices have equal arrays.
    """

    __slots__ = ("rows", "cols", "_coo")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        empty = np.zeros(0, dtype=np.int64)
        self._coo = (empty, empty, empty)

    @classmethod
    def from_dense(cls, dense) -> "SparseIntMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        if any(len(row) != cols for row in dense):
            raise ValueError("ragged dense matrix")
        terms = [(r, c, int(v)) for r, row in enumerate(dense) for c, v in enumerate(row) if v]
        rs, cs, vs = zip(*terms) if terms else ((), (), ())
        return cls.from_arrays(rows, cols, rs, cs, np.array(vs, dtype=object))

    @classmethod
    def from_arrays(cls, rows: int, cols: int, row_ids, col_ids, values) -> "SparseIntMatrix":
        """The sum of the terms values[i] at (row_ids[i], col_ids[i]), given
        as three parallel integer arrays in any order: terms at one position
        are added, and zero sums dropped.  A sum that could leave int64,
        with len(values)·max|v| >= 2^63, is taken in Python ints.  Terms
        already strictly sorted by column, then row, with no zero value are
        kept as they are."""
        m = cls(rows, cols)
        rs, cs, vs = (_integer_array(a) for a in (row_ids, col_ids, values))
        if not len(rs) == len(cs) == len(vs):
            raise ValueError("entry arrays differ in length")
        if len(rs) and not (
            rs.dtype == cs.dtype == np.int64
            and 0 <= rs.min() <= rs.max() < rows
            and 0 <= cs.min() <= cs.max() < cols
        ):
            raise IndexError("entry outside the matrix")
        key = cs * rows + rs
        if not ((key[1:] > key[:-1]).all() and vs.all()):
            if vs.dtype == np.int64 and len(vs) * _max_abs(vs) >= _INT64_LIMIT:
                vs = vs.astype(object)
            rs, cs, vs = _coalesce(rows, key, vs)
            vs = _integer_array(vs)
        m._coo = (rs, cs, vs)
        return m

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) sorted by column, then row."""
        return self._coo

    @property
    def nnz(self) -> int:
        return len(self._coo[2])

    def entries(self) -> list[tuple[int, int, int]]:
        """Nonzero entries as sorted (row, col, value) triples."""
        rs, cs, vs = self._coo
        order = np.lexsort((cs, rs))
        return list(zip(rs[order].tolist(), cs[order].tolist(), vs[order].tolist()))

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in zip(*(a.tolist() for a in self._coo)):
            dense[r][c] = v
        return dense

    def is_zero(self) -> bool:
        return not self.nnz

    def __eq__(self, other):
        return (
            isinstance(other, SparseIntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and all(map(np.array_equal, self._coo, other._coo))
        )

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _integer_array(a) -> np.ndarray:
    """a as an int64 array, or as Python ints in an object array when an
    entry does not fit in int64."""
    a = np.asarray(a)
    if a.dtype == object:
        return a if _max_abs(a) >= _INT64_LIMIT else a.astype(np.int64)
    return a.astype(np.int64, casting="safe" if a.size else "unsafe", copy=False)


# ---------------------------------------------------------------------------
# sparse Smith form


def _combine(dst: dict, src: dict, mult: int):
    """dst += mult * src for sparse vectors as dicts."""
    if not mult:
        return
    for k, v in src.items():
        w = dst.get(k, 0) + mult * v
        if w:
            dst[k] = w
        else:
            del dst[k]


def _subtract_row(rows, colrows, r2: int, q: int, pr: int, trans):
    """rows[r2] -= q * rows[pr], keeping the column index colrows in step,
    and the same on the transform rows trans unless it is None.

    Every column of rows[pr] still lists pr, so no column set empties here;
    an emptied row r2 is deleted.
    """
    row2 = rows[r2]
    for c, v in rows[pr].items():
        old = row2.get(c)
        if old is None:
            row2[c] = -q * v
            colrows[c].add(r2)
        else:
            w = old - q * v
            if w:
                row2[c] = w
            else:
                del row2[c]
                colrows[c].discard(r2)
    if not row2:
        del rows[r2]
    if trans is not None:
        _combine(trans[r2], trans[pr], -q)


def _delete_row(rows, colrows, r: int):
    for c in rows.pop(r):
        cs = colrows[c]
        cs.discard(r)
        if not cs:
            del colrows[c]


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _invariant_factors(diag: list[int], u: list[dict] | None = None) -> list[int]:
    """The Smith diagonal equivalent to diag(d_1, ..., d_k): replace pairs by
    their gcd and lcm until the entries form a divisibility chain.

    Given the transform rows u of the k diagonal rows, it reorders them
    with the entries and applies the same unimodular row operations: a
    negative entry flips its row, and the step from (a, b) to (g, ab/g) is
    [[s, t], [-b/g, a/g]] with s*a + t*b = g.
    """
    order = sorted(range(len(diag)), key=lambda i: abs(diag[i]))
    d = [abs(diag[i]) for i in order]
    if u is not None:
        u[:] = [u[i] if diag[i] > 0 else {c: -v for c, v in u[i].items()} for i in order]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a == 0:
                continue
            g, s, t = _bezout(a, b)
            d[i], d[j] = g, a // g * b
            if u is not None:
                ui, uj = u[i], u[j]
                u[i], u[j] = {}, {}
                _combine(u[i], ui, s)
                _combine(u[i], uj, t)
                _combine(u[j], ui, -b // g)
                _combine(u[j], uj, a // g)
    return d


def _snf_diagonal_sparse(m: SparseIntMatrix, u: list | None = None) -> list[int]:
    """Nonzero Smith diagonal of m, and its row transform when asked.

    Every unit pivot is peeled first: each removes one row and one column
    and contributes a 1 to the diagonal.  The residual, which has no entry
    +-1, is then diagonalized by Euclidean elimination: the entry of least
    absolute value is the pivot, and division with remainder clears its
    column and row or leaves a smaller entry to pivot on next.

    Given a list u, it appends the rows of a unimodular U as {col: value}
    dicts, with U*m*V = D for some unimodular V: each matrix row carries a
    transform row through every row operation, and the rows leave as the
    unit pivots, then the rest of the diagonal, then the rows that emptied.
    """
    rows: dict[int, dict[int, int]] = {}
    colrows: dict[int, set[int]] = {}
    for r, c, v in zip(*(a.tolist() for a in m._arrays())):
        rows.setdefault(r, {})[c] = v
        colrows.setdefault(c, set()).add(r)
    trans = None if u is None else {r: {r: 1} for r in range(m.rows)}

    ones = 0
    # Heap of (row nnz at push time, row index).  Every row operation pushes
    # the changed row again, so an entry whose count no longer matches is
    # stale, and a row found without a unit can be dropped until it changes.
    heap = [(len(cs), r) for r, cs in rows.items()]
    heapq.heapify(heap)
    while heap:
        nnz, pr = heapq.heappop(heap)
        prow = rows.get(pr)
        if prow is None or len(prow) != nnz:
            continue
        units = [(len(colrows[c]), c) for c, v in prow.items() if v == 1 or v == -1]
        if not units:
            continue
        # the sparsest row with a unit, at its unit in the shortest column
        pc = min(units)[1]
        pval = prow[pc]
        for r2 in sorted(colrows[pc]):
            if r2 != pr:
                _subtract_row(rows, colrows, r2, rows[r2][pc] * pval, pr, trans)
                if r2 in rows:
                    heapq.heappush(heap, (len(rows[r2]), r2))
        # column pc is now the pivot alone, so column operations clear the
        # pivot row without touching any other entry
        _delete_row(rows, colrows, pr)
        ones += 1
        if u is not None:
            u.append(trans.pop(pr))

    diag, diag_rows = [], []
    while rows:
        # least |value|, then fewest nonzeros in its row and column
        _, _, pr, pc = min(
            (abs(v), len(cs) + len(colrows[c]), r, c)
            for r, cs in rows.items()
            for c, v in cs.items()
        )
        while True:
            prow = rows[pr]
            p = prow[pc]
            for r2 in sorted(colrows[pc]):
                q = rows[r2][pc] // p
                if q and r2 != pr:
                    _subtract_row(rows, colrows, r2, q, pr, trans)
            rest = [(abs(rows[r2][pc]), r2) for r2 in colrows[pc] if r2 != pr]
            if rest:  # remainders, each smaller than |p|
                pr = min(rest)[1]
                continue
            # column operations against the lone pivot of column pc reduce
            # the pivot row modulo p and change nothing else
            for c in [c for c in prow if c != pc]:
                w = prow[c] % p
                if w:
                    prow[c] = w
                else:
                    del prow[c]
                    cs = colrows[c]
                    cs.discard(pr)
                    if not cs:
                        del colrows[c]
            if len(prow) > 1:
                pc = min((abs(v), c) for c, v in prow.items() if c != pc)[1]
                continue
            diag.append(p)
            _delete_row(rows, colrows, pr)
            if u is not None:
                diag_rows.append(trans.pop(pr))
            break
    diag = _invariant_factors(diag, None if u is None else diag_rows)
    if u is not None:
        u += diag_rows
        u += (trans[r] for r in sorted(trans))
    return [1] * ones + diag


# ---------------------------------------------------------------------------
# unit peel on arrays


def _max_abs(values: np.ndarray) -> int:
    return max(int(values.max()), -int(values.min())) if len(values) else 0


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Offsets where each run of equal values of a sorted array begins."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))) if len(keys) else keys


def _column_runs(cols: np.ndarray):
    """(offset, length) of each column's run of column-sorted entries."""
    starts = _run_starts(cols)
    return starts, np.diff(np.append(starts, len(cols)))


def _index_of(size: int, ids: np.ndarray) -> np.ndarray:
    """k at ids[k], -1 elsewhere."""
    index = np.full(size, -1)
    index[ids] = np.arange(len(ids))
    return index


def _column_hashes(rows: np.ndarray, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """A hash of each column run (rows and values); equal columns hash equal."""
    with np.errstate(over="ignore"):
        h = rows.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        h ^= values.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        h ^= h >> np.uint64(31)
        return np.add.reduceat(h, starts)


def _repeat_pairs(counts: np.ndarray, starts: np.ndarray):
    """Index pairs (i, starts[i] + j) for 0 <= j < counts[i], in order of i."""
    left = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return left, np.arange(len(left)) - first[left] + starts[left]


def _coalesce(nrows: int, key, vs):
    """(rows, cols, sums) of the values at equal keys col * nrows + row,
    zero sums dropped, sorted by column then row."""
    order = np.argsort(key, kind="stable")
    key, vs = key[order], vs[order]
    starts = _run_starts(key)
    sums = np.add.reduceat(vs, starts) if len(starts) else vs
    key = key[starts]
    keep = sums != 0
    key, sums = key[keep], sums[keep]
    return key % nrows, key // nrows, sums


def _drop_duplicate_columns(rs, cs, vs):
    """Drop every column equal, up to sign, to a column of lower index.

    Subtracting the earlier column empties the later one, so the column
    lattice and the Smith diagonal do not change.  Columns are grouped by
    their nonzero count and a hash of the column scaled to a positive first
    entry; each one is compared entry by entry with the first column of its
    group and dropped only when every entry agrees.
    """
    starts, counts = _column_runs(cs)
    signed = vs * np.repeat(np.sign(vs[starts]), counts)
    hashes = _column_hashes(rs, signed, starts)
    order = np.lexsort((cs[starts], hashes, counts))
    counts_seen, hashes_seen = counts[order], hashes[order]
    same = np.zeros(len(order), dtype=bool)
    same[1:] = (counts_seen[1:] == counts_seen[:-1]) & (hashes_seen[1:] == hashes_seen[:-1])
    group_first = np.maximum.accumulate(np.where(same, 0, np.arange(len(order))))
    members = order[same]
    if not len(members):
        return rs, cs, vs
    firsts = order[group_first[same]]
    n = counts[members]
    left, mine = _repeat_pairs(n, starts[members])
    theirs = mine - starts[members][left] + starts[firsts][left]
    agree = (rs[mine] == rs[theirs]) & (signed[mine] == signed[theirs])
    equal = np.logical_and.reduceat(agree, np.cumsum(n) - n)
    dropped = np.zeros(len(starts), dtype=bool)
    dropped[members[equal]] = True
    keep = ~np.repeat(dropped, counts)
    return rs[keep], cs[keep], vs[keep]


def _independent_pivots(nrows: int, ncols: int, rs, cs, vs):
    """Unit pivots (rows, cols, values) whose block of the matrix is diagonal.

    Each row and then each column keeps its one best unit by Markowitz
    cost (row nnz - 1)(col nnz - 1), then row, then column.  Among these
    candidates, one that meets a better one in its row or column
    (m[r_k, c_l] != 0) waits for a later round; the rest, taken in passes
    of local best until every candidate is taken or blocked, are the pivots.
    """
    unit = np.flatnonzero((vs == 1) | (vs == -1))
    if not len(unit):
        return unit, unit, unit
    starts, counts = _column_runs(cs)
    col_nnz = np.repeat(counts, counts)[unit]
    row_nnz = np.bincount(rs, minlength=nrows)[rs[unit]]
    cost = (row_nnz - 1) * (col_nnz - 1)
    least = np.full(nrows, np.iinfo(np.int64).max)
    np.minimum.at(least, rs[unit], cost)
    unit = unit[cost == least[rs[unit]]]
    first = np.full(nrows, ncols)
    np.minimum.at(first, rs[unit], cs[unit])
    unit = unit[cs[unit] == first[rs[unit]]]
    ranked = unit[np.lexsort((cs[unit], rs[unit], least[rs[unit]]))]
    cand = ranked[np.sort(np.unique(cs[ranked], return_index=True)[1])]
    # conflicts between candidates k < l, by their rank in cand
    ek, el = _index_of(nrows, rs[cand])[rs], _index_of(ncols, cs[cand])[cs]
    hit = (ek >= 0) & (el >= 0) & (ek != el)
    lo = np.minimum(ek[hit], el[hit])
    hi = np.maximum(ek[hit], el[hit])
    state = np.zeros(len(cand), dtype=np.int8)  # 0 open, 1 taken, -1 blocked
    while True:
        live = (state[lo] == 0) & (state[hi] == 0)
        lo, hi = lo[live], hi[live]
        waits = np.zeros(len(cand), dtype=bool)
        waits[hi] = True
        take = (state == 0) & ~waits
        state[take] = 1
        if not len(lo):
            break
        state[hi[state[lo] == 1]] = -1
    cand = cand[state == 1]
    return rs[cand], cs[cand], vs[cand]


def _peel_units(m: SparseIntMatrix, cap: int) -> tuple[int, SparseIntMatrix]:
    """Unit pivots peeled on arrays: (number peeled, residual matrix).

    Rounds run until no entry +-1 is left.  Each drops duplicate columns,
    picks independent unit pivots, and applies one Schur-complement update
    for all of them: m[i, j] -= m[i, c_k] * p_k * m[r_k, j] summed over the
    pivots (r_k, c_k, p_k), whose rows and columns then leave.  The block
    of the pivots is diagonal with entries +-1, so this is the same as
    eliminating them one at a time, each with a 1 for the diagonal.  A round
    that could leave int64, with (P+1)·max|v|² >= 2^63 for P pivots, is not
    run; nor is any when an entry does not fit in int64.  A round whose
    surviving entries plus its update number more than cap raises SizeCap
    before it builds them.  The residual's Smith diagonal completes m's
    after the 1s.
    """
    nrows, ncols = m.rows, m.cols
    rs, cs, vs = m._arrays()
    if vs.dtype != np.int64:
        return 0, m
    ones = 0
    while len(vs):
        rs, cs, vs = _drop_duplicate_columns(rs, cs, vs)
        pr, pc, pv = _independent_pivots(nrows, ncols, rs, cs, vs)
        big = _max_abs(vs)
        if not len(pr) or (len(pr) + 1) * big * big >= _INT64_LIMIT:
            break
        kr, kc = _index_of(nrows, pr)[rs], _index_of(ncols, pc)[cs]
        in_row, in_col = kr >= 0, kc >= 0
        pivot_row = np.flatnonzero(in_row & ~in_col)
        pivot_row = pivot_row[np.argsort(kr[pivot_row], kind="stable")]
        row_counts = np.bincount(kr[pivot_row], minlength=len(pr))
        pivot_col = np.flatnonzero(in_col & ~in_row)
        k = kc[pivot_col]
        rest = ~in_row & ~in_col
        needed = int(np.count_nonzero(rest)) + int(row_counts[k].sum())
        if needed > cap:
            raise SizeCap(needed, cap)
        left, right = _repeat_pairs(row_counts[k], (np.cumsum(row_counts) - row_counts)[k])
        scaled = vs[pivot_col] * pv[k]
        rs, cs, vs = _coalesce(
            nrows,
            np.concatenate((cs[rest], cs[pivot_row][right])) * nrows
            + np.concatenate((rs[rest], rs[pivot_col][left])),
            np.concatenate((vs[rest], -scaled[left] * vs[pivot_row][right])),
        )
        ones += len(pr)
    return ones, SparseIntMatrix.from_arrays(nrows, ncols, rs, cs, vs)


def _diagonal(m: SparseIntMatrix, cap: int) -> list[int]:
    """Nonzero Smith diagonal of m: units peeled on arrays under the cap,
    the residual by the dict pass."""
    ones, residual = _peel_units(m, cap)
    return [1] * ones + _snf_diagonal_sparse(residual)


def smith_normal_form(m: SparseIntMatrix):
    """Smith normal form of m as (diag, U).

    diag lists the nonzero diagonal entries d1 | d2 | ...; U is a
    unimodular m.rows x m.rows matrix, as dense rows, with U * m * V = D
    for some unimodular V.  So row i of U * m is divisible by diag[i], and
    the rows past the diagonal are zero: they span the left kernel.
    """
    u: list[dict] = []
    diag = _snf_diagonal_sparse(m, u)
    return diag, [[row.get(c, 0) for c in range(m.rows)] for row in u]


def rank(m: SparseIntMatrix, cap: int = DEFAULT_CELL_CAP) -> int:
    """Rank over Z (equivalently over Q): the length of the Smith diagonal."""
    return len(_diagonal(m, cap))


def cokernel(m: SparseIntMatrix, cap: int = DEFAULT_CELL_CAP) -> AbelianGroupInvariants:
    """Invariants of Z^rows / (column span of m)."""
    diag = _diagonal(m, cap)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianGroupInvariants(m.rows - len(diag), torsion)


def compose_is_zero(outer: SparseIntMatrix, inner: SparseIntMatrix):
    """Check outer * inner == 0 as one product on the entry arrays: each
    entry inner[k, c] meets every entry outer[r, k] of column k, and the
    terms are summed by position.  Returns None, or the least column with
    a nonzero image and that image as {outer row: value} by ascending row."""
    if inner.rows != outer.cols:
        raise ValueError("dimension mismatch in composite")
    ors, ocs, ovs = outer._arrays()
    irs, ics, ivs = inner._arrays()
    counts = np.bincount(ocs, minlength=outer.cols)
    left, right = _repeat_pairs(counts[irs], (np.cumsum(counts) - counts)[irs])
    ovs, ivs = ovs[right], ivs[left]
    # a sum has at most outer.cols terms, each at most max|outer| * max|inner|
    if outer.cols * _max_abs(ovs) * _max_abs(ivs) >= _INT64_LIMIT:
        ovs, ivs = ovs.astype(object), ivs.astype(object)
    rs, cs, vs = _coalesce(outer.rows, ics[left] * outer.rows + ors[right], ovs * ivs)
    if not len(vs):
        return None
    first = cs == cs[0]
    return int(cs[0]), dict(zip(rs[first].tolist(), vs[first].tolist()))


def homology_at(
    boundary_in: SparseIntMatrix, boundary_out: SparseIntMatrix, cap: int = DEFAULT_CELL_CAP
) -> AbelianGroupInvariants:
    """Invariants of ker(boundary_out) / im(boundary_in).

    boundary_in maps C_{k+1} -> C_k and boundary_out maps C_k -> C_{k-1};
    the carrier C_k must match (boundary_in.rows == boundary_out.cols) and
    the composite must vanish.

    Since ker(boundary_out) is a pure submodule of the carrier containing
    im(boundary_in), the torsion of the quotient equals the torsion of
    coker(boundary_in) and the free rank is dim C_k - rank(out) - rank(in).
    The cap bounds both Smith forms' unit peels.
    """
    if boundary_in.rows != boundary_out.cols:
        raise ValueError(
            f"carrier mismatch: in has {boundary_in.rows} rows, "
            f"out has {boundary_out.cols} cols"
        )
    bad = compose_is_zero(boundary_out, boundary_in)
    if bad is not None:
        raise NotAComplex(bad[0], bad[1])
    diag_in = _diagonal(boundary_in, cap)
    rank_out = rank(boundary_out, cap)
    free = boundary_in.rows - rank_out - len(diag_in)
    torsion = tuple(d for d in diag_in if d > 1)
    return AbelianGroupInvariants(free, torsion)

