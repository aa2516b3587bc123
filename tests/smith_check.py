"""A Smith form (diag, U) checked exactly against its matrix and sympy.

U must be unimodular, by an exact determinant; row i of U * A must be
divisible by diag[i] and the rows past the diagonal must be zero, which
with unimodular U means U * A * V = D for some unimodular V; and diag must
be sympy's Smith diagonal.
"""

from sympy import ZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import hermite_normal_form, invariant_factors

from quandles.intlin import SparseIntMatrix, smith_normal_form


def sympy_diagonal(dense) -> list[int]:
    """sympy's nonzero Smith diagonal of a dense integer matrix.

    A matrix of full row rank goes through sympy's Hermite form modulo
    one nonzero maximal minor, a multiple of the determinant of its column
    lattice: sympy's direct Smith form of a seeded 70 x 100 matrix of
    density 0.2 does not finish in minutes.
    """
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    if not rows or not cols:
        return []
    a = DomainMatrix([list(row) for row in dense], (rows, cols), ZZ)
    pivots = a.convert_to(a.domain.get_field()).rref()[1]
    if len(pivots) == rows:
        minor = a.extract(list(range(rows)), list(pivots)).det()
        a = hermite_normal_form(a, D=abs(minor))
    return [int(d) for d in invariant_factors(a) if d]


def checked_smith_form(dense):
    """(diag, U) of smith_normal_form on dense, after the three checks."""
    rows = len(dense)
    diag, U = smith_normal_form(SparseIntMatrix.from_dense(dense))
    assert len(U) == rows and all(len(row) == rows for row in U)
    if rows:
        assert abs(DomainMatrix(U, (rows, rows), ZZ).det()) == 1
    cols = list(zip(*dense))
    for i, u in enumerate(U):
        support = [(k, v) for k, v in enumerate(u) if v]
        image = [sum(v * col[k] for k, v in support) for col in cols]
        d = diag[i] if i < len(diag) else 0
        assert all(v % d == 0 for v in image) if d else not any(image), (i, d)
    assert diag == sympy_diagonal(dense), dense
    return diag, U
