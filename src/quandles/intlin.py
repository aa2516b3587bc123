"""Exact linear algebra over the integers.

Sparse integer matrices, Smith normal form, cokernels and homology of
two-step chain complexes.  All arithmetic uses Python's arbitrary-precision
integers; nothing is ever done in floating point or modular shortcut.
A sparse matrix is stored once, by rows ({row: {col: value}}); the Smith
form and the check that two boundaries compose to zero read those rows.

The Smith form is computed sparsely in two phases.  The peel takes
every unit pivot: the sparsest row holding an entry +-1 pivots there, row
operations clear that column, and the row and column leave with a 1 for
the diagonal.  The residual, which has no entry +-1, is diagonalized by
Euclidean elimination (least absolute value first, fewest nonzeros on
ties), and gcd/lcm steps put its diagonal in divisibility order.  A rank
is the length of that diagonal.  The same pass can record its row
operations as a unimodular transform U; rank, cokernel and homology do
not ask for it.  Runs are deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd, prod


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

    def torsion_annihilated_by(self, n: int) -> bool:
        return all(n % d == 0 for d in self.torsion)

    def torsion_divides_power_of(self, t: int) -> bool:
        """True when every torsion invariant divides some power of t."""
        for d in self.torsion:
            while True:
                g = gcd(d, t)
                if g == 1:
                    break
                while d % g == 0:
                    d //= g
            if d != 1:
                return False
        return True

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class SparseIntMatrix:
    """An integer matrix stored by rows: {row: {col: value}}.

    No row holds a zero value and no stored row is empty, so two equal
    matrices have equal row dicts.
    """

    __slots__ = ("rows", "cols", "_by_row")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        self.rows = rows
        self.cols = cols
        self._by_row: dict[int, dict[int, int]] = {}

    @classmethod
    def from_dense(cls, dense) -> "SparseIntMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        m = cls(rows, cols)
        for r, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged dense matrix")
            entries = {c: int(v) for c, v in enumerate(row) if v}
            if entries:
                m._by_row[r] = entries
        return m

    @classmethod
    def from_arrays(cls, rows: int, cols: int, row_ids, col_ids, values) -> "SparseIntMatrix":
        """A matrix from three parallel numpy integer arrays of nonzero
        entries at distinct positions; the values become Python ints."""
        rs, cs, vs = row_ids.tolist(), col_ids.tolist(), values.tolist()
        if not len(rs) == len(cs) == len(vs):
            raise ValueError("entry arrays differ in length")
        if rs and not (0 <= min(rs) and max(rs) < rows and 0 <= min(cs) and max(cs) < cols):
            raise IndexError("entry outside the matrix")
        if 0 in vs:
            raise ValueError("explicit zero entry")
        m = cls(rows, cols)
        by_row = m._by_row
        for r, c, v in zip(rs, cs, vs):
            by_row.setdefault(r, {})[c] = v
        if m.nnz != len(vs):
            raise ValueError("repeated entry position")
        return m

    def set(self, r: int, c: int, v: int):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        row = self._by_row.setdefault(r, {})
        if v:
            row[c] = int(v)
        else:
            row.pop(c, None)
            if not row:
                del self._by_row[r]

    def add(self, r: int, c: int, v: int):
        """Accumulate v into entry (r, c)."""
        self.set(r, c, self.get(r, c) + v)

    def get(self, r: int, c: int) -> int:
        row = self._by_row.get(r)
        return row.get(c, 0) if row else 0

    @property
    def nnz(self) -> int:
        return sum(map(len, self._by_row.values()))

    def entries(self) -> list[tuple[int, int, int]]:
        """Nonzero entries as sorted (row, col, value) triples."""
        rows = self._by_row
        return [(r, c, v) for r in sorted(rows) for c, v in sorted(rows[r].items())]

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries():
            dense[r][c] = v
        return dense

    def is_zero(self) -> bool:
        return not self._by_row

    def __eq__(self, other):
        return (
            isinstance(other, SparseIntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._by_row == other._by_row
        )

    def __repr__(self):
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


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
    rows = {r: dict(row) for r, row in m._by_row.items()}
    colrows: dict[int, set[int]] = {}
    for r, row in rows.items():
        for c in row:
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


def rank(m: SparseIntMatrix) -> int:
    """Rank over Z (equivalently over Q): the length of the Smith diagonal."""
    return len(_snf_diagonal_sparse(m))


def cokernel(m: SparseIntMatrix) -> AbelianGroupInvariants:
    """Invariants of Z^rows / (column span of m)."""
    diag = _snf_diagonal_sparse(m)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianGroupInvariants(m.rows - len(diag), torsion)


def compose_is_zero(outer: SparseIntMatrix, inner: SparseIntMatrix):
    """Check outer * inner == 0 row by row, (outer * inner)[r] = sum_k
    outer[r][k] * inner[k].  Returns None, or the least column with a
    nonzero image and that image as {outer row: value} by ascending row."""
    if inner.rows != outer.cols:
        raise ValueError("dimension mismatch in composite")
    bad: dict[int, dict[int, int]] = {}
    for r, row in outer._by_row.items():
        acc: dict[int, int] = {}
        for k, v in row.items():
            _combine(acc, inner._by_row.get(k, {}), v)
        if acc:
            bad[r] = acc
    if not bad:
        return None
    column = min(min(acc) for acc in bad.values())
    return column, {r: bad[r][column] for r in sorted(bad) if column in bad[r]}


def homology_at(
    boundary_in: SparseIntMatrix, boundary_out: SparseIntMatrix
) -> AbelianGroupInvariants:
    """Invariants of ker(boundary_out) / im(boundary_in).

    boundary_in maps C_{k+1} -> C_k and boundary_out maps C_k -> C_{k-1};
    the carrier C_k must match (boundary_in.rows == boundary_out.cols) and
    the composite must vanish.

    Since ker(boundary_out) is a pure submodule of the carrier containing
    im(boundary_in), the torsion of the quotient equals the torsion of
    coker(boundary_in) and the free rank is dim C_k - rank(out) - rank(in).
    """
    if boundary_in.rows != boundary_out.cols:
        raise ValueError(
            f"carrier mismatch: in has {boundary_in.rows} rows, "
            f"out has {boundary_out.cols} cols"
        )
    bad = compose_is_zero(boundary_out, boundary_in)
    if bad is not None:
        raise NotAComplex(bad[0], bad[1])
    diag_in = _snf_diagonal_sparse(boundary_in)
    rank_out = rank(boundary_out)
    free = boundary_in.rows - rank_out - len(diag_in)
    torsion = tuple(d for d in diag_in if d > 1)
    return AbelianGroupInvariants(free, torsion)

