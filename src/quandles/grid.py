"""Family specs and a fixed, deterministic catalogue of small quandles.

A family spec names one quandle: a family name followed by key=value
settings, with bare values matched to the settings positionally.
`FAMILIES` maps each family name to its setting names and to the function
that turns the settings into a `Recipe`.  The command line and the
catalogue both resolve names through this one table.  Families:
alexander (orders, t -- t is a scalar or a matrix written rows-semicolon,
entries-comma, e.g. t=0,1;1,1), dihedral (n), trivial (n), symplectic (g,
q), spherical (n, q), core (group), coxeter (type), covering (orders, t).
A core group is any name `groups.parse_group_name` reads, and a coxeter
type any of its Coxeter labels; its docstring gives the grammar.

The catalogue is the built-in test bed: rows of (key, family spec, order)
spanning every family, with orders from 1 to 64.  Keys are stable
identifiers (used by the census command and by tests), and each row
freezes the order of the quandle it builds so that a construction
drifting in size is caught immediately.  A row is parsed only when its
entry is used and built only when `build()` is called, so rebuilding an
entry from its key alone via `grid_by_key` is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from . import families
from .core import FiniteQuandle
from .coverings import universal_covering_alexander
from .families import AlexanderModuleSpec
from .fields import FiniteFieldSpec
from .groups import coxeter_generators, parse_group_name


@dataclass(frozen=True)
class Recipe:
    """A parsed family spec: how to build the quandle, and what it is."""

    description: str
    kind: str
    build: Callable[[], FiniteQuandle]
    alexander_spec: Optional[AlexanderModuleSpec] = None
    coxeter_kind: Optional[str] = None


def _module_spec(s) -> AlexanderModuleSpec:
    orders = [int(v) for v in s["orders"].split(",") if v]
    t = s["t"]
    if ";" in t or "," in t:
        rows = [[int(v) for v in row.split(",")] for row in t.split(";")]
        return AlexanderModuleSpec(orders, rows)
    return AlexanderModuleSpec.scalar(orders, int(t))


def _alexander(s) -> Recipe:
    spec = _module_spec(s)
    return Recipe(spec.label(), "alexander", lambda: families.alexander(spec), spec)


def _covering(s) -> Recipe:
    spec = _module_spec(s)
    if not spec.is_connected():
        raise ValueError("covering needs a connected module spec")
    # the module spec is the base's, not the total space's: carry none
    return Recipe(
        "covering of " + spec.label(),
        "covering",
        lambda: universal_covering_alexander(spec).total,
    )


def _on_n(kind: str):
    def make(s) -> Recipe:
        n = int(s["n"])
        return Recipe(f"{kind} n={n}", kind, lambda: getattr(families, kind)(n))

    return make


def _symplectic(s) -> Recipe:
    g, q = int(s["g"]), int(s["q"])
    return Recipe(f"symplectic g={g} q={q}", "symplectic", lambda: families.symplectic(g, q))


def _spherical(s) -> Recipe:
    n, q = int(s["n"]), int(s["q"])
    if FiniteFieldSpec.of(q).p == 2:
        raise ValueError("spherical needs odd characteristic")
    return Recipe(f"spherical n={n} q={q}", "spherical", lambda: families.spherical(n, q))


def _core(s) -> Recipe:
    _order, build = parse_group_name(s["group"])
    return Recipe(f"core group={s['group']}", "core", lambda: families.core(build()))


def _coxeter(s) -> Recipe:
    kind = s["type"]
    coxeter_generators(kind)  # refuses an unknown label, or one past the table limit, now
    return Recipe(
        f"coxeter type={kind}",
        "coxeter",
        lambda: families.coxeter_reflection_quandle(kind),
        coxeter_kind=kind,
    )


FAMILIES = {
    "alexander": (("orders", "t"), _alexander),
    "covering": (("orders", "t"), _covering),
    "dihedral": (("n",), _on_n("dihedral")),
    "trivial": (("n",), _on_n("trivial")),
    "symplectic": (("g", "q"), _symplectic),
    "spherical": (("n", "q"), _spherical),
    "core": (("group",), _core),
    "coxeter": (("type",), _coxeter),
}


def _settings(tokens, names) -> dict:
    """key=value tokens plus positional bare tokens, matched to names."""
    out = {}
    position = 0
    for tok in tokens:
        if "=" in tok:
            key, _, value = tok.partition("=")
            key = key.strip().lower()
            if key not in names:
                raise ValueError(f"unknown setting {key!r} (expected {', '.join(names)})")
            if key in out:
                raise ValueError(f"setting {key!r} given twice")
            out[key] = value.strip()
        else:
            while position < len(names) and names[position] in out:
                position += 1
            if position >= len(names):
                raise ValueError(f"unexpected value {tok!r}")
            out[names[position]] = tok.strip()
            position += 1
    missing = [n for n in names if n not in out]
    if missing:
        raise ValueError(f"missing setting(s): {', '.join(missing)}")
    return out


def parse_family(tokens) -> Recipe:
    """The recipe a family spec names, given as whitespace-split tokens.

    Raises ValueError for an unknown family or a malformed setting.
    """
    head, *rest = tokens
    if head.lower() not in FAMILIES:
        raise ValueError(f"unknown family {head!r}")
    names, make = FAMILIES[head.lower()]
    settings = _settings(rest, names)
    try:
        return make(settings)
    except ValueError as exc:
        raise ValueError(f"bad {head.lower()} spec: {exc}") from None


@dataclass
class GridEntry:
    """One catalogue row; its spec is parsed on first use, once."""

    key: str
    family_spec: str
    order: int

    @cached_property
    def recipe(self) -> Recipe:
        return parse_family(self.family_spec.split())

    @property
    def kind(self) -> str:
        return self.recipe.kind

    @property
    def alexander_spec(self) -> Optional[AlexanderModuleSpec]:
        return self.recipe.alexander_spec

    def build(self) -> FiniteQuandle:
        q = self.recipe.build()
        if q.order != self.order:
            raise AssertionError(
                f"grid entry {self.key!r} built order {q.order}, expected {self.order}"
            )
        return q


CATALOGUE = (
    # connected linear quandles of order <= 16 (cyclic module, scalar T)
    ("alexander:3:t-1", "alexander orders=3 t=-1", 3),
    ("alexander:5:t2", "alexander orders=5 t=2", 5),
    ("alexander:5:t-1", "alexander orders=5 t=-1", 5),
    ("alexander:7:t3", "alexander orders=7 t=3", 7),
    ("alexander:7:t-1", "alexander orders=7 t=-1", 7),
    ("alexander:9:t2", "alexander orders=9 t=2", 9),
    ("alexander:9:t-1", "alexander orders=9 t=-1", 9),
    ("alexander:11:t-1", "alexander orders=11 t=-1", 11),
    ("alexander:13:t-1", "alexander orders=13 t=-1", 13),
    ("alexander:15:t2", "alexander orders=15 t=2", 15),
    # connected linear quandles of order <= 16 (matrix T)
    ("alexander:2,2:fib", "alexander orders=2,2 t=0,1;1,1", 4),
    ("alexander:2,2,2:frob", "alexander orders=2,2,2 t=0,0,1;1,0,1;0,1,0", 8),
    ("alexander:3,3:t-1", "alexander orders=3,3 t=-1", 9),
    ("alexander:3,3:rot", "alexander orders=3,3 t=0,1;2,0", 9),
    # larger linear quandles
    ("alexander:17:t-1", "alexander orders=17 t=-1", 17),
    ("alexander:25:t7", "alexander orders=25 t=7", 25),
    ("alexander:5,5:t-1", "alexander orders=5,5 t=-1", 25),
    ("alexander:3,3,3:t-1", "alexander orders=3,3,3 t=-1", 27),
    # dihedral quandles (includes disconnected even cases)
    ("dihedral:1", "dihedral n=1", 1),
    ("dihedral:2", "dihedral n=2", 2),
    ("dihedral:3", "dihedral n=3", 3),
    ("dihedral:4", "dihedral n=4", 4),
    ("dihedral:6", "dihedral n=6", 6),
    ("dihedral:8", "dihedral n=8", 8),
    ("dihedral:10", "dihedral n=10", 10),
    # trivial quandles
    ("trivial:1", "trivial n=1", 1),
    ("trivial:2", "trivial n=2", 2),
    ("trivial:4", "trivial n=4", 4),
    # transvection quandles on nonzero vectors of F_q^{2g}
    ("symplectic:g1:q2", "symplectic g=1 q=2", 3),
    ("symplectic:g1:q3", "symplectic g=1 q=3", 8),
    ("symplectic:g1:q4", "symplectic g=1 q=4", 15),
    ("symplectic:g1:q5", "symplectic g=1 q=5", 24),
    ("symplectic:g1:q7", "symplectic g=1 q=7", 48),
    ("symplectic:g1:q8", "symplectic g=1 q=8", 63),
    ("symplectic:g2:q2", "symplectic g=2 q=2", 15),
    # reflection quandles on spheres over F_q
    ("spherical:n2:q3", "spherical n=2 q=3", 6),
    ("spherical:n2:q5", "spherical n=2 q=5", 30),
    ("spherical:n2:q7", "spherical n=2 q=7", 42),
    ("spherical:n3:q3", "spherical n=3 q=3", 24),
    # core quandles of small groups
    ("core:cyclic:3", "core group=cyclic:3", 3),
    ("core:cyclic:4", "core group=cyclic:4", 4),
    ("core:cyclic:5", "core group=cyclic:5", 5),
    ("core:cyclic:7", "core group=cyclic:7", 7),
    ("core:klein4", "core group=klein4", 4),
    ("core:s3", "core group=s3", 6),
    ("core:q8", "core group=q8", 8),
    ("core:dihedral:4", "core group=dihedral:4", 8),
    # reflection quandles of finite Coxeter groups
    ("coxeter:A2", "coxeter type=A2", 3),
    ("coxeter:A3", "coxeter type=A3", 6),
    ("coxeter:A4", "coxeter type=A4", 10),
    ("coxeter:B2", "coxeter type=B2", 4),
    ("coxeter:G2", "coxeter type=G2", 6),
    ("coxeter:I2(5)", "coxeter type=I2(5)", 5),
    ("coxeter:I2(7)", "coxeter type=I2(7)", 7),
    ("coxeter:I2(8)", "coxeter type=I2(8)", 8),
    # total spaces of universal coverings of linear quandles
    ("covering:2,2:fib", "covering orders=2,2 t=0,1;1,1", 8),
    ("covering:3,3:t-1", "covering orders=3,3 t=-1", 27),
)


def standard_grid() -> list[GridEntry]:
    """The built-in catalogue, in a fixed order; nothing is parsed or built."""
    return [GridEntry(*row) for row in CATALOGUE]


def grid_by_key() -> dict[str, GridEntry]:
    return {e.key: e for e in standard_grid()}
