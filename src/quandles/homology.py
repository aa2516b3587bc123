"""Rack and quandle chain complexes and their low-degree homology.

The rack complex of a quandle X has C_k free on k-tuples of elements with

  d(x_1, ..., x_k) = sum_{i=1..k} (-1)^i [ (x_1, ..., x_{i-1}, x_{i+1}, ..., x_k)
                                         - (x_1 <| x_i, ..., x_{i-1} <| x_i,
                                            x_{i+1}, ..., x_k) ]

(the i-th entry is removed; in the second tuple every earlier entry is
translated by it).  In quandle mode the degenerate subcomplex spanned by
tuples with two equal consecutive entries is divided out: bases exclude
degenerate tuples and boundaries project by dropping degenerate images.

Basis tuples are ordered lexicographically in the element order, which is
the order of their mixed-radix codes sum x_i n^(k-i): the codes of C_k
are those of C_(k-1), each extended by every last entry that leaves the
tuple nondegenerate.  Boundary matrices are assembled on integer arrays
of these codes: each face of every column tuple is one gather from the
quandle table, and the matrix is the sum of the 2k signed faces of all
columns, which `SparseIntMatrix.from_arrays` adds up by position.
`boundary_chain` computes the same boundary one tuple at a time; the
chain-homotopy verifier uses it, and the tests check the assembled
matrices against it.

H_k is read off d_(k+1) and d_k, each restricted to the tuples whose
last entry lies in the generating set S (see `RackComplexSlice.homology`
for why that is the same group); the full d_k is kept for the check that
d_k d_(k+1) = 0.  Homology groups come from `intlin.homology_at`, whose
one Smith-form pass peels unit pivots on the entry arrays of both
restricted boundaries at once, as one block-diagonal matrix, in rounds,
and hands the residual to a dict elimination.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteQuandle
from .intlin import (
    DEFAULT_CELL_CAP,
    AbelianGroupInvariants,
    SizeCap,
    SparseIntMatrix,
    cokernel,
    homology_at,
)

RACK = "rack"
QUANDLE = "quandle"


def boundary_chain(q: FiniteQuandle, tup) -> dict[tuple, int]:
    """The rack boundary of a basis tuple as a {tuple: coefficient} chain."""
    out: dict[tuple, int] = {}
    k = len(tup)
    for i in range(1, k + 1):
        sign = -1 if i % 2 else 1
        xi = tup[i - 1]
        plain = tup[: i - 1] + tup[i:]
        acted = tuple(q.apply(x, xi) for x in tup[: i - 1]) + tup[i:]
        for t, c in ((plain, sign), (acted, -sign)):
            w = out.get(t, 0) + c
            if w:
                out[t] = w
            else:
                del out[t]
    return out


def _digits(codes: np.ndarray, n: int, k: int) -> list[np.ndarray]:
    """The k base-n digits of each code, most significant first."""
    digits = []
    for _ in range(k):
        codes, digit = np.divmod(codes, n)
        digits.append(digit)
    return digits[::-1]


class RackComplexSlice:
    """Low degrees of the (rack or quandle) complex of a finite quandle:
    d_1 .. d_3 in full, and d_3, d_4 restricted to the basis tuples whose
    last entry lies in S = quandle.generating_set().

    The cap bounds the face entries that assembly materializes, 2k for
    each column of each d_k built, and the unit peel of the Smith forms.
    """

    def __init__(self, quandle: FiniteQuandle, mode: str = QUANDLE, cap: int = DEFAULT_CELL_CAP):
        if mode not in (RACK, QUANDLE):
            raise ValueError(f"mode must be {RACK!r} or {QUANDLE!r}")
        self.quandle = quandle
        self.mode = mode
        self.cap = cap
        # the last entries of all basis tuples, and of the restricted ones
        self._last = {False: np.arange(quandle.order), True: np.sort(quandle.generating_set())}
        self._codes = {(0, False): np.zeros(1, dtype=np.int64)}
        self._boundaries: dict[tuple[int, bool], SparseIntMatrix] = {}

    def _basis_codes(self, degree: int, restricted: bool = False) -> np.ndarray:
        """Basis tuples of C_degree as ascending mixed-radix codes; only those
        whose last entry lies in S when restricted.

        The code of (x_1, ..., x_k) is sum x_i n^(k-i), so ascending codes
        are lexicographic tuple order.  Each basis tuple of C_(k-1) is
        extended by every last entry, in quandle mode by those unequal to
        its own last entry.
        """
        if (degree, restricted) not in self._codes:
            n, last = self.quandle.order, self._last[restricted]
            below = self._basis_codes(degree - 1)
            codes = below[:, None] * n + last
            if self.mode == QUANDLE and degree > 1:
                codes = codes[below[:, None] % n != last]
            self._codes[degree, restricted] = codes.ravel()
        return self._codes[degree, restricted]

    def basis(self, degree: int) -> list[tuple]:
        if degree < 0 or degree > 3:
            raise ValueError("degrees 0..3 are materialized")
        codes = self._basis_codes(degree)
        if not degree:
            return [()]
        return list(zip(*(d.tolist() for d in _digits(codes, self.quandle.order, degree))))

    def _admit(self, *boundaries: tuple[int, bool]):
        """Raise SizeCap unless the face entries of assembling the d_k, given
        as (k, restricted), fit the cap: 2k for each column, the basis
        k-tuples that end in S (restricted) or anywhere."""
        n = self.quandle.order
        base = n if self.mode == RACK else n - 1
        needed = sum(2 * k * len(self._last[r]) * base ** (k - 1) for k, r in boundaries)
        if needed > self.cap:
            raise SizeCap(needed, self.cap)

    def boundary(self, degree: int) -> SparseIntMatrix:
        """The matrix of d: C_degree -> C_{degree-1} in the chosen mode,
        degrees 1..3."""
        return self._boundary(degree, False)

    def restricted_boundary(self, degree: int) -> SparseIntMatrix:
        """d_degree, degree 3 or 4, on the basis tuples whose last entry lies
        in S: all of C_{degree-1} as rows, those tuples in ascending code
        order as columns."""
        return self._boundary(degree, True)

    def _boundary(self, k: int, restricted: bool) -> SparseIntMatrix:
        if k not in ((3, 4) if restricted else (1, 2, 3)):
            raise ValueError("boundaries materialized in degrees 1..3, restricted ones in 3 and 4")
        if (k, restricted) not in self._boundaries:
            self._admit((k, restricted))
            self._boundaries[k, restricted] = self._assemble(k, self._basis_codes(k, restricted))
        return self._boundaries[k, restricted]

    def _assemble(self, k: int, cols: np.ndarray) -> SparseIntMatrix:
        """d_k on the basis k-tuples of the ascending codes cols, on arrays,
        one face of every column at a time.

        A face's codes come from one gather in the quandle table and map to
        row indices, -1 marking a degenerate face in quandle mode.  Every
        other signed face is one term of the matrix, and from_arrays sums
        the terms of a column that share a row.
        """
        n = self.quandle.order
        row_codes = self._basis_codes(k - 1)
        row_of = np.full(n ** (k - 1), -1, dtype=np.int64)
        row_of[row_codes] = np.arange(len(row_codes))
        digits = _digits(cols, n, k)
        table = self.quandle.array
        faces = np.empty((len(cols), 2 * k), dtype=np.int64)
        for i in range(k):
            plain = acted = np.zeros(len(cols), dtype=np.int64)
            for j in range(k):
                if j != i:
                    plain = plain * n + digits[j]
                    acted = acted * n + (table[digits[j], digits[i]] if j < i else digits[j])
            faces[:, 2 * i] = row_of[plain]
            faces[:, 2 * i + 1] = row_of[acted]
        # face i (from 1) is (-1)^i [plain - acted]
        signs = np.array([-1, 1, 1, -1] * k)[: 2 * k]
        kept = np.flatnonzero(faces >= 0)
        row_ids = faces.ravel()[kept]
        col_ids, face = np.divmod(kept, 2 * k)
        values = signs[face]
        del faces, kept, face  # freed before from_arrays sorts the terms
        return SparseIntMatrix.from_arrays(len(row_codes), len(cols), row_ids, col_ids, values)

    def homology(self, degree: int) -> AbelianGroupInvariants:
        """H_degree as homology_at(d_{k+1}|S, d_k), k = degree, with the
        rank of d_k read off d_k|S: each boundary restricted to the basis
        tuples that end in S.

        im d_{k+1} is spanned by the d(c, s) with s in S.  Write d(c, z) =
        (dc, z) + (-1)^(k+1) (c - c <| z), with (dc, z) appending z to
        each tuple of dc and c <| z acting on each entry.  Let M be the
        span of the d(c, s), s in S, and T = {y : d(c, y) in M for all c}.
        For y in T and s in S, 0 = dd(c, y, s) = d(d(c, y), s) +- (d(c, y)
        - d(c <| s, y <| s)); the first term ends in s and d(c, y) is in M,
        so d(c <| s, y <| s) is in M for every c, and y <| s is in T.  So T
        contains S and is closed under every R_s, whose inverse is a power
        of it; hence T is S.<R_s> = X.  In quandle mode the projection onto
        the degenerate-free quotient is a surjective chain map, so the
        images of the nondegenerate (c, s) span im d_{k+1} there.  In
        degree 2 this is the rack space of Fenn, Rourke and Sanderson cut
        down to the relators of As(X) on S.

        The same argument one degree lower, with c of length k - 1, gives
        im d_k = span of the d(c, s), s in S, so rank d_k = rank d_k|S.  The
        free rank is |C_k| - rank d_k|S - rank d_{k+1}|S, and the torsion
        that of coker d_{k+1}|S; one unit peel of the two as one
        block-diagonal matrix gives both.  The full d_k stays for the check
        d_k d_{k+1}|S = 0.  Both boundaries are counted against the cap
        before either is built, and the peel's cap counts the entries of
        both blocks.
        """
        if degree not in (2, 3):
            raise ValueError("homology materialized for degrees 2 and 3")
        self._admit((degree, False), (degree + 1, True))
        d_in, d_out = self.restricted_boundary(degree + 1), self.boundary(degree)
        ends_in_s = np.searchsorted(self._basis_codes(degree), self._basis_codes(degree, True))
        return homology_at(d_in, d_out, self.cap, ends_in_s)


def quandle_h2(q: FiniteQuandle, cap: int = DEFAULT_CELL_CAP) -> AbelianGroupInvariants:
    """Second quandle homology from the degenerate-free complex."""
    return RackComplexSlice(q, QUANDLE, cap).homology(2)


def homology(
    q: FiniteQuandle, degree: int, mode: str = QUANDLE, cap: int = DEFAULT_CELL_CAP
) -> AbelianGroupInvariants:
    return RackComplexSlice(q, mode, cap).homology(degree)


def adjoint_abelianization(q: FiniteQuandle) -> AbelianGroupInvariants:
    """Abelianized adjoint group: Z^X modulo e_{x <| y} = e_x.

    Always free abelian, one Z per connected component.
    """
    n = q.order
    images, x = q.array.ravel(), np.repeat(np.arange(n), n)
    cols = np.flatnonzero(images != x)  # column x*n + y holds e_{x <| y} - e_x
    rows = np.stack([images[cols], x[cols]], axis=1).ravel()
    values = np.tile([1, -1], len(cols))
    return cokernel(SparseIntMatrix.from_arrays(n, n * n, rows, np.repeat(cols, 2), values))
