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
import time
from dataclasses import dataclass, field

from .adjoint import ClauwensGroup
from .core import FiniteQuandle, dump_table, is_covering, is_isomorphic, validate
from .families import AlexanderModuleSpec, alexander
from .homology import SizeCap, effective_cap, quandle_h2


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
    the image of the base point under g.
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
    projection = tuple(model.act_index(base_point, g) for g in elements)
    base = alexander(spec)
    if not is_covering(projection, total, base):
        raise AssertionError("constructed projection is not a covering")
    fiber_sizes = {projection.count(v) for v in set(projection)}
    if fiber_sizes != {model.coker_order}:
        raise AssertionError("fibers are not uniformly of cokernel size")
    return CoveringInstance(
        base=base,
        total=total,
        projection=projection,
        base_point=base_point,
        spec=spec,
        fiber_size=model.coker_order,
    )


@dataclass
class PropertyEntry:
    """One verified covering property, with the seconds it took."""

    name: str
    claim: str
    status: str
    data: dict = field(default_factory=dict)
    seconds: float | None = None


def covering_properties(
    inst: CoveringInstance, cap: int | None = None
) -> list[PropertyEntry]:
    """Verify the covering-theoretic properties of a constructed instance.

    Failures become report entries, never exceptions: (a) the total space
    is connected, (b) its type equals the base type, (c) the torsion of
    its second quandle homology divides a power of the base type, (d) the
    sharper fact that this torsion is annihilated by the base type, and
    (e) the projection is a covering.  Each entry's seconds are the time
    since the previous entry, so shared work counts once, where it is done.
    """
    entries = []
    last = time.perf_counter()

    def add(name, claim, status, data):
        nonlocal last
        now = time.perf_counter()
        entries.append(PropertyEntry(name, claim, status, data, seconds=now - last))
        last = now

    base_t = inst.base.type
    total_q = inst.total

    connected = total_q.is_connected()
    add(
        "total_connected",
        "total space of the universal covering is connected",
        "pass" if connected else "fail",
        {"orbits": len(total_q.orbits())},
    )

    type_ok = total_q.type == base_t
    add(
        "type_preserved",
        "total space has the same type as the base",
        "pass" if type_ok else "fail",
        {"base_type": base_t, "total_type": total_q.type},
    )

    try:
        h2 = quandle_h2(total_q, cap=cap)
    except SizeCap as exc:
        add(
            "h2_torsion",
            "H2 torsion of the total space divides a power of the type",
            "skipped",
            {"reason": str(exc)},
        )
    else:
        add(
            "h2_torsion",
            "H2 torsion of the total space divides a power of the type",
            "pass" if h2.torsion_divides_power_of(base_t) else "fail",
            {"h2": str(h2)},
        )
        add(
            "h2_annihilated",
            "H2 torsion of the total space is annihilated by the type",
            "pass" if h2.torsion_annihilated_by(base_t) else "fail",
            {"h2": str(h2), "type": base_t},
        )

    proj_ok = is_covering(inst.projection, inst.total, inst.base)
    add(
        "projection_covering",
        "projection is a quandle covering",
        "pass" if proj_ok else "fail",
        {"fiber_size": inst.fiber_size},
    )
    return entries


def base_point_independent(spec: AlexanderModuleSpec, max_order: int = 12) -> bool:
    """Totals built from different base points are isomorphic (small cases).

    Brute-force isomorphism search, so only run where the total order is
    at most max_order.
    """
    first = universal_covering_alexander(spec, base_point=0)
    if first.total.order > max_order:
        raise ValueError(
            f"total order {first.total.order} exceeds isomorphism-search bound"
        )
    for b in range(1, spec.size):
        other = universal_covering_alexander(spec, base_point=b)
        if not is_isomorphic(first.total, other.total, max_order=max_order):
            return False
    return True


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
