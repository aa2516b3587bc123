"""Permutation groups on {0..n-1} with deterministic stabilizer chains.

Permutations are image tuples: p[i] is the image of i, and compose(p, q)
applies p first.  Group order and membership come from a stabilizer chain
built with Schreier's lemma, with no randomization anywhere, so every
order is an exact orbit-times-stabilizer certificate.  Each level of the
chain takes the smallest point moved by its generators, builds the orbit
transversal {b: u_b} with u_b[point] = b by breadth-first search, and
passes to the next level every distinct non-identity Schreier generator
u_a g u_{a^g}^-1, sorted.

The Schreier step runs on numpy arrays.  The transversal is stacked as
an |orbit| x n int32 array U whose row inverses Uinv are computed once;
with pos mapping each orbit point to its row, one gather
Uinv[pos[g[a]], g[U]] forms all |orbit| Schreier generators of one
generator g.  Rows are deduplicated by their bytes, and only the
distinct ones become image tuples.

An element of a group is fixed by its images of a base, the points of
the chain (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 4.4).  So `tabulate` keys each element by those images, and finds
every product by gathering its images of the base alone and one
searchsorted among the sorted keys.
"""

from __future__ import annotations

from math import lcm

import numpy as np

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def is_identity(p: Perm) -> bool:
    return all(i == j for i, j in enumerate(p))


def perm_order(p: Perm) -> int:
    """Order of p: lcm of its cycle lengths."""
    return lcm(*cycle_type(p))


def cycle_type(p: Perm) -> tuple[int, ...]:
    """Sorted cycle lengths, including fixed points."""
    n = len(p)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            lengths.append(length)
    return tuple(sorted(lengths))


def is_permutation(p, n: int) -> bool:
    return len(p) == n and sorted(p) == list(range(n))


def format_perm(p: Perm) -> str:
    """Image-list serialization: '0 2 1'."""
    return " ".join(map(str, p))


class _ChainLevel:
    __slots__ = ("point", "transversal", "gens")

    def __init__(self, point, transversal, gens):
        self.point = point
        self.transversal = transversal  # {beta: u} with u[point] = beta
        self.gens = gens


def _orbit_transversal(degree: int, point: int, gens: list[Perm]):
    transversal = {point: identity(degree)}
    queue = [point]
    while queue:
        a = queue.pop(0)
        ua = transversal[a]
        for g in gens:
            b = g[a]
            if b not in transversal:
                transversal[b] = compose(ua, g)
                queue.append(b)
    return transversal


def _schreier_generators(degree: int, transversal, gens: list[Perm]) -> list[Perm]:
    """Sorted distinct non-identity Schreier generators u_a g u_{a^g}^-1."""
    points = np.fromiter(transversal, dtype=np.intp, count=len(transversal))
    u = np.array(list(transversal.values()), dtype=np.int32)
    rows = np.arange(len(points))
    u_inv = np.empty_like(u)
    u_inv[rows[:, None], u] = np.arange(degree, dtype=np.int32)
    pos = np.empty(degree, dtype=np.intp)
    pos[points] = rows
    flat_inv = u_inv.ravel()
    seen = set()
    for g in np.array(gens, dtype=np.int32):
        # row r is u_a g u_{a^g}^-1 for a = points[r]: u_inv[pos[g[a]], g[u[r]]]
        s = flat_inv.take(g.take(u) + (pos[g[points]] * degree)[:, None])
        seen.update(map(bytes, s))
    seen.discard(np.arange(degree, dtype=np.int32).tobytes())
    return sorted(tuple(np.frombuffer(s, dtype=np.int32).tolist()) for s in seen)


def _build_chain(degree: int, gens: list[Perm]):
    """Stabilizer chain: list of levels, deterministic throughout."""
    levels: list[_ChainLevel] = []
    current = sorted({g for g in gens if not is_identity(g)})
    while current:
        point = min(i for g in current for i in range(degree) if g[i] != i)
        transversal = _orbit_transversal(degree, point, current)
        levels.append(_ChainLevel(point, transversal, current))
        current = _schreier_generators(degree, transversal, current)
    return levels


class PermGroup:
    """A permutation group given by generators, with a lazy stabilizer chain."""

    def __init__(self, degree: int, generators):
        self.degree = degree
        seen = set()
        gens = []
        for g in generators:
            g = tuple(g)
            if not is_permutation(g, degree):
                raise ValueError(f"generator is not a degree-{degree} permutation: {g}")
            if g not in seen and not is_identity(g):
                seen.add(g)
                gens.append(g)
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._chain = None

    def chain(self):
        if self._chain is None:
            self._chain = _build_chain(self.degree, list(self.generators))
        return self._chain

    @property
    def order(self) -> int:
        result = 1
        for level in self.chain():
            result *= len(level.transversal)
        return result

    def contains(self, p) -> bool:
        p = tuple(p)
        if not is_permutation(p, self.degree):
            return False
        for level in self.chain():
            b = p[level.point]
            u = level.transversal.get(b)
            if u is None:
                return False
            p = compose(p, inverse(u))
        return is_identity(p)

    def elements(self, limit: int = 1_000_000) -> list[Perm]:
        """All elements by closure, sorted; guarded by `limit`."""
        if self.order > limit:
            raise ValueError(f"group order {self.order} exceeds limit {limit}")
        elems = {identity(self.degree)}
        frontier = list(self.generators)
        elems.update(frontier)
        while frontier:
            new = []
            for p in frontier:
                for g in self.generators:
                    q = compose(p, g)
                    if q not in elems:
                        elems.add(q)
                        new.append(q)
            frontier = new
        return sorted(elems)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)})"


def base_points(group: PermGroup) -> list[int]:
    """A base of the group: the points of its stabilizer chain, or any one
    point when the chain is empty."""
    return [level.point for level in group.chain()] or [0]


def base_keys(images: np.ndarray) -> np.ndarray:
    """One key per row of base images along the last axis: the row's bytes."""
    images = np.ascontiguousarray(images, dtype=np.int32)
    return images.view(np.dtype((np.void, 4 * images.shape[-1])))[..., 0]


# product images of the base gathered per block of rows in `tabulate`
_TABULATE_BLOCK_CELLS = 1 << 20


def tabulate(elements: np.ndarray, base, conjugate: bool = False):
    """The rows of `elements`, image arrays of permutations, sorted
    lexicographically, and the table of a product on them: entry [a, b] is
    the index of a b (apply a, then b), or of b^-1 a b when `conjugate`.

    `base` is a base of a group holding the elements, and every product
    must be an element.  A product is keyed by its images of the base alone,
    gathered in blocks of rows, and found by one searchsorted among the
    sorted keys of the elements; a key that is not there is an internal
    error, never a wrong index.
    """
    elements = elements[np.lexsort(elements.T[::-1])]
    n, degree = elements.shape
    base = np.asarray(base)
    keys = base_keys(elements[:, base])
    by_key = np.argsort(keys)
    sorted_keys = keys[by_key]
    flat = elements.ravel()
    starts = np.arange(n) * degree  # element r's image of x is flat[starts[r] + x]
    # the product's image of x is b[a[y]], with y = x, or y = b^-1[x] when conjugating
    y = base[None, :]
    if conjugate:
        inverses = np.empty_like(elements)
        inverses[np.arange(n)[:, None], elements] = np.arange(degree, dtype=np.int32)
        y = inverses[:, base]
    table = np.empty((n, n), dtype=np.int64)
    step = max(1, _TABULATE_BLOCK_CELLS // max(1, n * len(base)))
    for a0 in range(0, n, step):
        a = starts[a0 : a0 + step, None, None]
        found = base_keys(flat[starts[:, None] + flat[a + y]])  # [a, b]: the product's key
        pos = np.minimum(np.searchsorted(sorted_keys, found), n - 1)
        if not np.array_equal(sorted_keys[pos], found):
            raise RuntimeError("internal error: a product is not among the tabulated elements")
        table[a0 : a0 + step] = by_key[pos]
    return elements, table


def closure_order(degree: int, gens, limit: int = 2_000_000) -> int:
    """Group order by plain multiplication closure (independent of the chain)."""
    gens = [tuple(g) for g in gens]
    elems = {identity(degree)}
    frontier = [g for g in gens if g not in elems]
    elems.update(frontier)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in elems:
                    elems.add(q)
                    new.append(q)
                    if len(elems) > limit:
                        raise ValueError(f"closure exceeded limit {limit}")
        frontier = new
    return len(elems)

