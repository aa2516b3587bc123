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
the order of their mixed-radix codes sum x_i n^(k-i).  Boundary matrices
are assembled on integer arrays of these codes: each face of every basis
tuple is one gather from the quandle table, and the 2k signed faces of a
column are coalesced by sorting.  `boundary_chain` computes the same
boundary one tuple at a time; the chain-homotopy verifier uses it, and the
tests check the assembled matrices against it.  The matrix keeps the
assembled entry arrays, and homology groups come from `intlin.homology_at`,
whose Smith form peels unit pivots on those arrays in rounds and hands
the residual to a dict elimination.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteQuandle
from .intlin import (
    AbelianGroupInvariants,
    SparseIntMatrix,
    cokernel,
    homology_at,
)

RACK = "rack"
QUANDLE = "quandle"

DEFAULT_CELL_CAP = 10_000_000


class SizeCap(RuntimeError):
    """A complex would exceed the configured basis-cell cap."""

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(f"complex needs {needed} basis cells, cap is {cap}")


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
    """Degrees 1..4 of the (rack or quandle) complex of a finite quandle."""

    def __init__(self, quandle: FiniteQuandle, mode: str = QUANDLE, cap: int = DEFAULT_CELL_CAP):
        if mode not in (RACK, QUANDLE):
            raise ValueError(f"mode must be {RACK!r} or {QUANDLE!r}")
        self.quandle = quandle
        self.mode = mode
        n = quandle.order
        if n**4 > cap:
            raise SizeCap(n**4, cap)
        # int32 codes whenever n**4 fits, which the default cap guarantees
        self._dtype = np.int32 if n**4 < 2**31 else np.int64
        self._codes: dict[int, np.ndarray] = {}
        self._boundaries: dict[int, SparseIntMatrix] = {}

    def _basis_codes(self, degree: int) -> np.ndarray:
        """Basis tuples of C_degree as ascending mixed-radix codes.

        The code of (x_1, ..., x_k) is sum x_i n^(k-i), so ascending codes
        are lexicographic tuple order.
        """
        if degree < 0 or degree > 4:
            raise ValueError("degrees 0..4 are materialized")
        if degree not in self._codes:
            n = self.quandle.order
            codes = np.arange(n**degree, dtype=self._dtype)
            if self.mode == QUANDLE:
                digits = _digits(codes, n, degree)
                keep = np.ones(len(codes), dtype=bool)
                for a, b in zip(digits, digits[1:]):
                    keep &= a != b
                codes = codes[keep]
            self._codes[degree] = codes
        return self._codes[degree]

    def basis(self, degree: int) -> list[tuple]:
        codes = self._basis_codes(degree)
        if not degree:
            return [()]
        return list(zip(*(d.tolist() for d in _digits(codes, self.quandle.order, degree))))

    def boundary(self, degree: int) -> SparseIntMatrix:
        """The matrix of d: C_degree -> C_{degree-1} in the chosen mode."""
        if degree < 1 or degree > 4:
            raise ValueError("boundaries materialized for degrees 1..4")
        if degree not in self._boundaries:
            self._boundaries[degree] = self._assemble(degree)
        return self._boundaries[degree]

    def _assemble(self, k: int) -> SparseIntMatrix:
        """d_k on arrays, one face of every basis tuple at a time.

        A face's codes come from one gather in the quandle table and map to
        row indices, -1 marking a degenerate face in quandle mode.  Each
        column's 2k entries are then sorted and equal rows summed, which
        leaves the entries in the column-then-row order the matrix keeps.
        """
        n, dtype = self.quandle.order, self._dtype
        row_codes = self._basis_codes(k - 1)
        row_of = np.full(n ** (k - 1), -1, dtype=dtype)
        row_of[row_codes] = np.arange(len(row_codes), dtype=dtype)
        cols = self._basis_codes(k)
        digits = _digits(cols, n, k)
        table = self.quandle.array.astype(dtype)
        faces = np.empty((len(cols), 2 * k), dtype=dtype)
        for i in range(k):
            plain = np.zeros(len(cols), dtype=dtype)
            acted = np.zeros(len(cols), dtype=dtype)
            for j in range(k):
                if j != i:
                    plain = plain * n + digits[j]
                    acted = acted * n + (table[digits[j], digits[i]] if j < i else digits[j])
            faces[:, 2 * i] = row_of[plain]
            faces[:, 2 * i + 1] = row_of[acted]
        # face i (from 1) is (-1)^i [plain - acted]
        signs = np.array([-1, 1, 1, -1] * k, dtype=np.int32)[: 2 * k]
        order = np.argsort(faces, axis=1)
        faces = np.take_along_axis(faces, order, axis=1).ravel()
        coeffs = signs[order].ravel()
        starts = np.ones(len(faces), dtype=bool)
        starts[1:] = faces[1:] != faces[:-1]
        starts[:: 2 * k] = True
        starts = np.flatnonzero(starts)
        sums = np.add.reduceat(coeffs, starts) if len(starts) else coeffs
        row_ids = faces[starts]
        keep = (sums != 0) & (row_ids >= 0)
        return SparseIntMatrix.from_arrays(
            len(row_codes), len(cols), row_ids[keep], starts[keep] // (2 * k), sums[keep]
        )

    def homology(self, degree: int) -> AbelianGroupInvariants:
        if degree not in (2, 3):
            raise ValueError("homology materialized for degrees 2 and 3")
        return homology_at(self.boundary(degree + 1), self.boundary(degree))


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
