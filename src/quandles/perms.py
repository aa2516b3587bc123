"""Permutation groups on {0..n-1} with deterministic stabilizer chains.

A permutation is an image row: p[i] is the image of i.  compose(p, q)
applies p first; on int32 rows the same product is the gather q[p].  A
group keeps its generators as one read-only (k, n) int32 array.  Group
order and membership come from a stabilizer chain built with Schreier's
lemma, with no randomization anywhere, so every order is an exact
orbit-times-stabilizer certificate.  Each level of the chain keeps its
generators as a sorted array, takes the smallest point they move, and
builds the orbit transversal: the |orbit| x n array of rows u_b with
u_b[point] = b, one breadth-first layer at a time by gathers.  The orbit
is column `point` of it.  The next level gets every distinct non-identity
Schreier generator u_a g u_{a^g}^-1, sorted: with pos mapping each orbit
point to its row and Uinv the row inverses of the transversal U, the
gather Uinv[pos[g[a]], g[U]] forms all |orbit| of them for a generator g.
Rows are deduplicated by their big-endian bytes, which sort as the rows
do.

The chain writes every element once as a product of one transversal row
per level, so the elements are those products, and membership sifts a
row down the levels.  An element is fixed by its images of a base, the
points of the chain (Holt, Eick and O'Brien, Handbook of Computational
Group Theory, 4.4).  So `tabulate` keys each element by those images, and
finds every product by gathering its images of the base alone and one
searchsorted among the sorted keys.

Every walk of a table in the package takes its rows in the blocks of
`row_blocks`, and `first_non_permutation` is its one permutation check.
"""

from __future__ import annotations

from math import lcm

import numpy as np

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[i] for i in p)


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


def format_perm(p: Perm) -> str:
    """Image-list serialization: '0 2 1'."""
    return " ".join(map(str, p))


def perm_labels(rows: np.ndarray):
    """A function giving the image-list labels of permutation rows, called
    on first read of `.labels`: `check "core group=dihedral:1000"` prints
    no label, and formatting its 2,000 labels of 1,000 numbers each took a
    fifth of its time."""
    return lambda: [format_perm(p) for p in rows.tolist()]


# cells per block of rows: a walk holds the table and one block, whatever the order
BLOCK_CELLS = 1 << 18


def row_blocks(rows, width: int):
    """(first row, rows) over blocks of `rows` of about BLOCK_CELLS cells,
    a row standing for `width` cells; one row when it is wider."""
    step = max(1, BLOCK_CELLS // width)
    return ((r0, rows[r0 : r0 + step]) for r0 in range(0, len(rows), step))


def first_non_permutation(rows: np.ndarray) -> int | None:
    """The first of `rows` that is not a permutation of 0..width-1, if any."""
    identity = np.arange(rows.shape[1])
    for r0, block in row_blocks(rows, len(identity)):
        bad = (np.sort(block, axis=1) != identity).any(axis=1)
        if bad.any():
            return r0 + int(np.argmax(bad))
    return None


class _ChainLevel:
    __slots__ = ("point", "transversal", "gens")

    def __init__(self, point, transversal, gens):
        self.point = point
        self.transversal = transversal  # rows u_b with u_b[point] = b
        self.gens = gens


def _sorted_rows(keys, degree: int) -> np.ndarray:
    """The distinct rows with these `base_keys`, sorted lexicographically."""
    rows = np.frombuffer(b"".join(sorted(set(keys))), dtype=">i4")
    return rows.reshape(-1, degree).astype(np.int32)


def _orbit_transversal(point: int, gens: np.ndarray) -> np.ndarray:
    """The transversal rows in the order of a first-in first-out search
    from `point`: by a, then by g, each image b = g[a] kept at its first
    (a, g) with u_b = g[u_a]."""
    k, degree = gens.shape
    seen = np.zeros(degree, dtype=bool)
    seen[point] = True
    layers = [np.arange(degree, dtype=np.int32)[None, :]]
    while len(layers[-1]):
        layer = layers[-1]
        images = gens[:, layer[:, point]].T.ravel()  # images[a * k + g] = g[a]
        fresh = np.flatnonzero(~seen[images])
        fresh = fresh[np.sort(np.unique(images[fresh], return_index=True)[1])]
        seen[images[fresh]] = True
        a, g = np.divmod(fresh, k)
        layers.append(gens[g[:, None], layer[a]])
    return np.concatenate(layers)


def _schreier_generators(point: int, transversal: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Sorted distinct non-identity Schreier generators u_a g u_{a^g}^-1."""
    m, degree = transversal.shape
    points = transversal[:, point]
    identity = np.arange(degree, dtype=np.int32)
    u_inv = np.empty_like(transversal)
    u_inv[np.arange(m)[:, None], transversal] = identity
    pos = np.empty(degree, dtype=np.intp)
    pos[points] = np.arange(m)
    flat_inv = u_inv.ravel()
    found = set()
    for g in gens:
        # row r is u_a g u_{a^g}^-1 for a = points[r]: u_inv[pos[g[a]], g[u[r]]]
        s = flat_inv.take(g.take(transversal) + (pos[g[points]] * degree)[:, None])
        found.update(base_keys(s).tolist())
    found.discard(base_keys(identity).tolist())
    return _sorted_rows(found, degree)


def _build_chain(gens: np.ndarray):
    """Stabilizer chain: list of levels, deterministic throughout."""
    levels: list[_ChainLevel] = []
    current = _sorted_rows(base_keys(gens).tolist(), gens.shape[1])
    while len(current):
        point = int(np.argmax((current != np.arange(current.shape[1])).any(axis=0)))
        transversal = _orbit_transversal(point, current)
        levels.append(_ChainLevel(point, transversal, current))
        current = _schreier_generators(point, transversal, current)
    return levels


class PermGroup:
    """A permutation group given by generators, with a lazy stabilizer chain."""

    def __init__(self, degree: int, generators):
        self.degree = degree
        rows = [np.asarray(g) for g in generators]
        for g in rows:
            if g.shape != (degree,) or first_non_permutation(g[None]) is not None:
                raise ValueError(
                    f"generator is not a degree-{degree} permutation: {tuple(g.tolist())}"
                )
        gens = np.array(rows, dtype=np.int32).reshape(len(rows), degree)
        gens = gens[np.sort(np.unique(base_keys(gens), return_index=True)[1])]
        self.generators = gens[(gens != np.arange(degree)).any(axis=1)]
        self.generators.setflags(write=False)
        self._chain = None

    def chain(self):
        if self._chain is None:
            self._chain = _build_chain(self.generators)
        return self._chain

    @property
    def order(self) -> int:
        result = 1
        for level in self.chain():
            result *= len(level.transversal)
        return result

    def contains(self, p) -> bool:
        """Sift p down the chain: at each level divide by the transversal
        row that agrees with it on the level's point."""
        p = np.asarray(p)
        identity = np.arange(self.degree)
        if p.shape != identity.shape or first_non_permutation(p[None]) is not None:
            return False
        for level in self.chain():
            row = np.flatnonzero(level.transversal[:, level.point] == p[level.point])
            if not len(row):
                return False
            u_inv = np.empty_like(identity)
            u_inv[level.transversal[row[0]]] = identity
            p = u_inv[p]
        return bool((p == identity).all())

    def elements(self, limit: int = 1_000_000) -> np.ndarray:
        """Every element once, as the rows of an int32 array: the products
        of one transversal row per level, the deepest applied first;
        guarded by `limit`."""
        if self.order > limit:
            raise ValueError(f"group order {self.order} exceeds limit {limit}")
        products = np.arange(self.degree, dtype=np.int32)[None, :]
        for level in reversed(self.chain()):
            # [u, v] applies v first, then u
            products = level.transversal[:, products].reshape(-1, self.degree)
        return products

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)})"


def base_points(group: PermGroup) -> list[int]:
    """A base of the group: the points of its stabilizer chain, or any one
    point when the chain is empty."""
    return [level.point for level in group.chain()] or [0]


def base_keys(images: np.ndarray) -> np.ndarray:
    """One key per row of images along the last axis: the row's big-endian
    bytes, which sort as the rows of non-negative images do, lexicographically."""
    images = np.ascontiguousarray(images, dtype=">i4")
    return images.view(np.dtype((np.void, 4 * images.shape[-1])))[..., 0]


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
    for a0, a in row_blocks(starts[:, None, None], n * len(base)):
        found = base_keys(flat[starts[:, None] + flat[a + y]])  # [a, b]: the product's key
        pos = np.minimum(np.searchsorted(sorted_keys, found), n - 1)
        if not np.array_equal(sorted_keys[pos], found):
            raise RuntimeError("internal error: a product is not among the tabulated elements")
        table[a0 : a0 + len(a)] = by_key[pos]
    return elements, table


def closure_order(degree: int, gens, limit: int = 2_000_000) -> int:
    """Group order by plain multiplication closure (independent of the chain)."""
    gens = [tuple(g) for g in gens]
    elems = {tuple(range(degree))}
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

