"""Universal coverings of connected Alexander quandles.

For a connected quandle X with base point a, the exponent-zero part of the
adjoint group carries a quandle operation

    g <| h = e_a^-1 g h^-1 e_a h,

and g -> a . g is a covering onto X --- a surjection where elements with
equal images induce identical right translations.  For Alexander quandles
the adjoint model makes this kernel finite and explicit, so the whole
total space can be tabulated: it has |X| * |coker(mu)| elements.  The
table and the projection are gathers through the model's array product
and action, not one scalar product per cell.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .adjoint import ClauwensGroup
from .core import FiniteQuandle, dump_table, validate
from .families import AlexanderModuleSpec
from .homology import DEFAULT_CELL_CAP, SizeCap
from .perms import row_blocks


@dataclass
class CoveringInstance:
    """A tabulated covering p: total -> base with its construction data."""

    base: FiniteQuandle
    total: FiniteQuandle
    projection: tuple[int, ...]
    base_point: int
    spec: AlexanderModuleSpec
    fiber_size: int

    def fibers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, image in enumerate(self.projection):
            out.setdefault(image, []).append(i)
        return out


def universal_covering_alexander(
    spec: AlexanderModuleSpec, base_point: int = 0, cap: int = DEFAULT_CELL_CAP
) -> CoveringInstance:
    """Tabulate the universal covering of a connected Alexander quandle.

    The total space is the exponent-zero slice of the adjoint model with
    the quoted operation, element i = x * |coker| + alpha being (0, x,
    alpha), tabulated in blocks of rows by the model's array product; the
    projection sends g to the image of the base point under g.  That it is
    a covering with fibers of cokernel size is checked once, by
    `cli.covering_properties`.
    """
    model = ClauwensGroup(spec)
    fiber = model.coker_order
    size = spec.size * fiber
    if size * size > cap:
        raise SizeCap(size * size, cap)
    elements = (0, *np.divmod(np.arange(size), fiber))
    e_a = (1, base_point, 0)
    # g <| h = e_a^-1 (g (h^-1 e_a h)), with h^-1 e_a h computed once per h
    conj = model.mul_array(model.inv_array(elements), model.mul_array(e_a, elements))
    table = np.empty((size, size), dtype=np.int64)
    for g0, ids in row_blocks(np.arange(size), size):
        g = (0, *np.divmod(ids[:, None], fiber))
        _, x, alpha = model.mul_array(model.inv_array(e_a), model.mul_array(g, conj))
        table[g0 : g0 + len(ids)] = x * fiber + alpha
    x_labels = [",".join(map(str, row)) for row in spec.coord_rows.tolist()]
    alpha_labels = [",".join(map(str, row)) for row in model.alpha_rows.tolist()]
    labels = [f"({x};{a})" for x in x_labels for a in alpha_labels]
    total = validate(table, labels)
    return CoveringInstance(
        base=model.quandle,
        total=total,
        projection=tuple(model.act_array(base_point, elements).tolist()),
        base_point=base_point,
        spec=spec,
        fiber_size=fiber,
    )


def export_covering(inst: CoveringInstance, directory: str) -> list[str]:
    """Write base table, total table and projection map; return the paths."""
    os.makedirs(directory, exist_ok=True)
    projection = [f"{inst.total.order} {inst.base.order}\n"]
    projection += [f"{i} {v}\n" for i, v in enumerate(inst.projection)]
    files = {
        "base.quandle": dump_table(inst.base, comment="covering base"),
        "total.quandle": dump_table(inst.total, comment="covering total space"),
        "projection.map": "# projection: total element index -> base element index\n"
        + "".join(projection),
    }
    paths = [os.path.join(directory, name) for name in files]
    for path, text in zip(paths, files.values()):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths
