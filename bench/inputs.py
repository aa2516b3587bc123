"""Seeded presentations of fixed benchmark inputs.

The seed changes only how an input is presented, never what it is:

- a quandle table is relabeled by a seeded permutation of its elements;
- the matrix T of a module (Z/p)^k is conjugated by a seeded invertible
  matrix over Z/p;
- a covering base point is a seeded element of the module.

Each of these gives an isomorphic object, so every expected output of a
job is independent of the seed.  Nothing here imports the library, so the
generator can be tested on its own.
"""

from __future__ import annotations

import random


def rng_for(workload: str, seed: int) -> random.Random:
    """The generator for one workload and seed (string seeding is stable)."""
    return random.Random(f"{workload}:{seed}")


def relabel(table, rng: random.Random) -> list[list[int]]:
    """The table of the same quandle with element x renamed sigma(x)."""
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        row = table[x]
        sx = sigma[x]
        for y in range(n):
            out[sx][sigma[y]] = sigma[row[y]]
    return out


def table_text(table, comment: str) -> str:
    """A table in the library's interchange format (order line, then rows)."""
    lines = [f"# {comment}", str(len(table))]
    lines.extend(" ".join(map(str, row)) for row in table)
    return "\n".join(lines) + "\n"


def _inverse_mod(matrix, p: int):
    """Inverse of a square matrix over the prime field Z/p, or None."""
    k = len(matrix)
    a = [[v % p for v in row] + [int(i == j) for j in range(k)] for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        scale = pow(a[col][col], -1, p)
        a[col] = [v * scale % p for v in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[col])]
    return [row[k:] for row in a]


def _matmul_mod(a, b, p: int):
    return [
        [sum(a[i][m] * b[m][j] for m in range(len(b))) % p for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def conjugate(t_matrix, p: int, rng: random.Random):
    """P T P^-1 over Z/p for a seeded invertible P (p prime)."""
    k = len(t_matrix)
    while True:
        P = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
        P_inv = _inverse_mod(P, p)
        if P_inv is not None:
            return _matmul_mod(_matmul_mod(P, t_matrix, p), P_inv, p)
