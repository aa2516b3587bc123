"""Universal coverings of connected Alexander quandles.

For a connected quandle X with base point a, the exponent-zero part of the
adjoint group carries a quandle operation

    g <| h = e_a^-1 g h^-1 e_a h,

and g -> a . g is a covering onto X --- a surjection where elements with
equal images induce identical right translations.  For Alexander quandles
the adjoint model makes this kernel finite and explicit, so the whole
total space can be tabulated: it has |X| * |coker(mu)| elements.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .adjoint import ClauwensGroup
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

    The total space is the exponent-zero slice {(0, x, alpha)} of the
    adjoint model with the quoted operation; the projection sends g to
    the image of the base point under g.  That it is a covering with fibers
    of cokernel size is checked once, by `covering_properties`.
    """
    model = ClauwensGroup(spec)
    size = spec.size * model.coker_order
    limit = effective_cap(cap)
    if size * size > limit:
        raise SizeCap(size * size, limit)
    elements = list(model.kernel_slice())
    index = {g: i for i, g in enumerate(elements)}
    e_a = model.e(base_point)
    inv_ea = model.inv(e_a)
    # g <| h = e_a^-1 (g (h^-1 e_a h)), with h^-1 e_a h computed once per h
    conj = [model.mul(model.inv(h), model.mul(e_a, h)) for h in elements]
    table = [[index[model.mul(inv_ea, model.mul(g, c))] for c in conj] for g in elements]
    labels = [
        "({};{})".format(
            ",".join(map(str, spec.coords(g.x))), ",".join(map(str, model.alpha_coords(g.alpha)))
        )
        for g in elements
    ]
    total = validate(table, labels)
    return CoveringInstance(
        base=model.quandle,
        total=total,
        projection=tuple(model.act_index(base_point, g) for g in elements),
        base_point=base_point,
        spec=spec,
        fiber_size=model.coker_order,
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
    paths = []
    base_path = os.path.join(directory, "base.quandle")
    with open(base_path, "w", encoding="utf-8") as fh:
        fh.write(dump_table(inst.base, comment="covering base"))
    paths.append(base_path)
    total_path = os.path.join(directory, "total.quandle")
    with open(total_path, "w", encoding="utf-8") as fh:
        fh.write(dump_table(inst.total, comment="covering total space"))
    paths.append(total_path)
    proj_path = os.path.join(directory, "projection.map")
    with open(proj_path, "w", encoding="utf-8") as fh:
        fh.write("# projection: total element index -> base element index\n")
        fh.write(f"{inst.total.order} {inst.base.order}\n")
        for i, v in enumerate(inst.projection):
            fh.write(f"{i} {v}\n")
    paths.append(proj_path)
    return paths
