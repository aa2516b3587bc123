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

from .adjoint import BLOCK_CELLS, ClauwensGroup
from .core import FiniteQuandle, NotSurjective, dump_table, is_covering, validate
from .families import AlexanderModuleSpec
from .homology import SizeCap, effective_cap, quandle_h2
from .report import ReportDocument


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
    spec: AlexanderModuleSpec, base_point: int = 0, cap: int | None = None
) -> CoveringInstance:
    """Tabulate the universal covering of a connected Alexander quandle.

    The total space is the exponent-zero slice of the adjoint model with
    the quoted operation, element i = x * |coker| + alpha being (0, x,
    alpha), tabulated in blocks of rows by the model's array product; the
    projection sends g to the image of the base point under g.  That it is
    a covering with fibers of cokernel size is checked once, by
    `covering_properties`.
    """
    model = ClauwensGroup(spec)
    fiber = model.coker_order
    size = spec.size * fiber
    limit = effective_cap(cap)
    if size * size > limit:
        raise SizeCap(size * size, limit)
    elements = (0, *np.divmod(np.arange(size), fiber))
    e_a = (1, base_point, 0)
    # g <| h = e_a^-1 (g (h^-1 e_a h)), with h^-1 e_a h computed once per h
    conj = model.mul_array(model.inv_array(elements), model.mul_array(e_a, elements))
    table = np.empty((size, size), dtype=np.int64)
    step = max(1, BLOCK_CELLS // size)
    for g0 in range(0, size, step):
        g = tuple(v[g0 : g0 + step, None] for v in elements[1:])
        _, x, alpha = model.mul_array(model.inv_array(e_a), model.mul_array((0, *g), conj))
        table[g0 : g0 + step] = x * fiber + alpha
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


def covering_properties(
    inst: CoveringInstance, doc: ReportDocument, cap: int | None = None
) -> None:
    """Verify the covering-theoretic properties of a constructed instance.

    Each property becomes one entry of doc, never an exception: (a) the
    total space is connected, (b) its type equals the base type, (c) the
    torsion of its second quandle homology divides a power of the base
    type, (d) the sharper fact that this torsion is annihilated by the base
    type, and (e) the projection is a covering whose fibers all have
    fiber_size elements.  A cell cap on (c) skips it, with the cap's
    message as data.reason, and leaves (d) out.
    """
    base_t = inst.base.type
    total_q = inst.total

    with doc.check("total_connected", "total space of the universal covering is connected") as e:
        e.status = "pass" if total_q.is_connected() else "fail"
        e.data = {"orbits": len(total_q.orbits())}

    with doc.check("type_preserved", "total space has the same type as the base") as e:
        e.status = "pass" if total_q.type == base_t else "fail"
        e.data = {"base_type": base_t, "total_type": total_q.type}

    h2 = None
    with doc.check("h2_torsion", "H2 torsion of the total space divides a power of the type") as e:
        try:
            h2 = quandle_h2(total_q, cap=cap)
        except SizeCap as exc:
            e.status, e.data = "skipped", {"reason": str(exc)}
        else:
            e.status = "pass" if h2.torsion_divides_power_of(base_t) else "fail"
            e.data = {"h2": str(h2)}
    if h2 is not None:
        with doc.check(
            "h2_annihilated", "H2 torsion of the total space is annihilated by the type"
        ) as e:
            e.status = "pass" if h2.torsion_annihilated_by(base_t) else "fail"
            e.data = {"h2": str(h2), "type": base_t}

    with doc.check("projection_covering", "projection is a quandle covering") as e:
        try:
            covers = is_covering(inst.projection, inst.total, inst.base)
        except NotSurjective:
            covers = False
        sizes = {len(members) for members in inst.fibers().values()}
        e.status = "pass" if covers and sizes == {inst.fiber_size} else "fail"
        e.data = {"fiber_size": inst.fiber_size}


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
