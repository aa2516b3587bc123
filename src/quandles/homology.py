"""Rack and quandle chain complexes and their low-degree homology.

The rack complex of a quandle X has C_k free on k-tuples of elements with

  d(x_1, ..., x_k) = sum_{i=1..k} (-1)^i [ (x_1, ..., x_{i-1}, x_{i+1}, ..., x_k)
                                         - (x_1 <| x_i, ..., x_{i-1} <| x_i,
                                            x_{i+1}, ..., x_k) ]

(the i-th entry is removed; in the second tuple every earlier entry is
translated by it).  In quandle mode the degenerate subcomplex spanned by
tuples with two equal consecutive entries is divided out: bases exclude
degenerate tuples and boundaries project by dropping degenerate images.

Basis tuples are ordered lexicographically in the element order.
"""

from __future__ import annotations

import os
from itertools import product

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
CAP_ENV_VAR = "QF_CAP"


class SizeCap(RuntimeError):
    """A complex would exceed the configured basis-cell cap."""

    def __init__(self, needed: int, cap: int):
        self.needed = needed
        self.cap = cap
        super().__init__(f"complex needs {needed} basis cells, cap is {cap}")


def effective_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env:
        return int(env)
    return DEFAULT_CELL_CAP


def is_degenerate(tup) -> bool:
    return any(a == b for a, b in zip(tup, tup[1:]))


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


class RackComplexSlice:
    """Degrees 1..4 of the (rack or quandle) complex of a finite quandle."""

    def __init__(self, quandle: FiniteQuandle, mode: str = QUANDLE, cap: int | None = None):
        if mode not in (RACK, QUANDLE):
            raise ValueError(f"mode must be {RACK!r} or {QUANDLE!r}")
        self.quandle = quandle
        self.mode = mode
        cap = effective_cap(cap)
        n = quandle.order
        if n**4 > cap:
            raise SizeCap(n**4, cap)
        self._bases: dict[int, list[tuple]] = {}
        self._index: dict[int, dict[tuple, int]] = {}
        self._boundaries: dict[int, SparseIntMatrix] = {}

    def basis(self, degree: int) -> list[tuple]:
        if degree < 0 or degree > 4:
            raise ValueError("degrees 0..4 are materialized")
        if degree not in self._bases:
            n = self.quandle.order
            tuples = product(range(n), repeat=degree)
            if self.mode == QUANDLE:
                base = [t for t in tuples if not is_degenerate(t)]
            else:
                base = list(tuples)
            self._bases[degree] = base
            self._index[degree] = {t: i for i, t in enumerate(base)}
        return self._bases[degree]

    def basis_size(self, degree: int) -> int:
        return len(self.basis(degree))

    def boundary(self, degree: int) -> SparseIntMatrix:
        """The matrix of d: C_degree -> C_{degree-1} in the chosen mode."""
        if degree < 1 or degree > 4:
            raise ValueError("boundaries materialized for degrees 1..4")
        if degree not in self._boundaries:
            rows = self.basis(degree - 1)
            cols = self.basis(degree)
            ridx = self._index[degree - 1]
            m = SparseIntMatrix(len(rows), len(cols))
            for j, tup in enumerate(cols):
                for t, c in boundary_chain(self.quandle, tup).items():
                    if self.mode == QUANDLE and is_degenerate(t):
                        continue
                    m.add(ridx[t], j, c)
            self._boundaries[degree] = m
        return self._boundaries[degree]

    def homology(self, degree: int) -> AbelianGroupInvariants:
        if degree not in (2, 3):
            raise ValueError("homology materialized for degrees 2 and 3")
        return homology_at(self.boundary(degree + 1), self.boundary(degree))


def build_complex(
    q: FiniteQuandle, mode: str = QUANDLE, cap: int | None = None
) -> RackComplexSlice:
    return RackComplexSlice(q, mode=mode, cap=cap)


def quandle_h2(q: FiniteQuandle, cap: int | None = None) -> AbelianGroupInvariants:
    """Second quandle homology from the degenerate-free complex."""
    return build_complex(q, QUANDLE, cap).homology(2)


def rack_h2(q: FiniteQuandle, cap: int | None = None) -> AbelianGroupInvariants:
    """Second rack homology (full complex)."""
    return build_complex(q, RACK, cap).homology(2)


def homology(
    q: FiniteQuandle, degree: int, mode: str = QUANDLE, cap: int | None = None
) -> AbelianGroupInvariants:
    return build_complex(q, mode, cap).homology(degree)


def adjoint_abelianization(q: FiniteQuandle) -> AbelianGroupInvariants:
    """Abelianized adjoint group: Z^X modulo e_{x <| y} = e_x.

    Always free abelian, one Z per connected component.
    """
    n = q.order
    m = SparseIntMatrix(n, n * n)
    j = 0
    for x in range(n):
        row = q.table[x]
        for y in range(n):
            z = row[y]
            if z != x:
                m.add(z, j, 1)
                m.add(x, j, -1)
            j += 1
    return cokernel(m)
