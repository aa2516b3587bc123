"""Command-line frontend.

Inputs are a family spec, a `grid:<key>` catalogue entry or a path to a
quandle table file, e.g.::

    quandles check "alexander orders=3,3 t=-1"
    quandles check alexander 3 t=-1
    quandles check grid:coxeter:A3
    quandles homology --mode rack --degree 2 dihedral n=3
    quandles verify --suite homotopy alexander orders=5 t=2
    quandles covering --export-dir outdir alexander orders=3,3 t=-1
    quandles census --dir tables/

Family specs and `grid:<key>` catalogue entries resolve through one table,
`grid.FAMILIES`; its module docstring gives the family grammar.  Group
names, for `core group=` and `verify --suite coxeter`, resolve through
one function, `groups.parse_group_name`; its docstring gives the grammar.  A
`covering` input carries no module data, so `adjoint`, `verify` and
`covering` refuse it.

Every subcommand, with its help, its handler and its options, is one row
of `COMMANDS`; the options `input`, `--cap-cells`, `--timings` and `--out`
are each declared once and shared by the rows.  The suites of `verify`
are one dict, `SUITES`, from suite name to the function that builds the
report, and `--suite` takes its choices from its keys.  The argparse
tree is built from the table once, when the module is imported.

Exit codes: 0 all checks passed, 1 some check failed, 2 bad input, an
unmet precondition or a report or export that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace
from typing import Callable, Optional

from . import __version__
from .adjoint import (
    BAR_GROUP_CAP,
    ClauwensGroup,
    HomotopyVerifier,
    NotConnected,
    clauwens_group,
    group_h2_bar,
    homotopy_terms,
)
from .core import AxiomViolation, FiniteQuandle, NotSurjective, is_covering, load_table
from .coverings import CoveringInstance, export_covering, universal_covering_alexander
from .families import AlexanderModuleSpec
from .grid import FAMILIES, GridEntry, Recipe, grid_by_key, parse_family, standard_grid
from .groups import parse_group_name
from .homology import (
    DEFAULT_CELL_CAP,
    QUANDLE,
    RACK,
    SizeCap,
    adjoint_abelianization,
    homology,
    quandle_h2,
)
from .intlin import AbelianGroupInvariants
from .report import ReportDocument


class CLIError(ValueError):
    """Bad input or unmet precondition; maps to exit code 2."""


# ---------------------------------------------------------------------------
# input parsing


def parse_input(pieces) -> Recipe:
    """Turn the CLI input arguments into a quandle recipe: a grid key, a
    family spec (both resolved through `grid.FAMILIES`, on the arguments
    split at whitespace) or a table file (one argument, as given)."""
    tokens = [t for piece in pieces for t in piece.split()]
    if not tokens:
        raise CLIError("empty input")
    head = tokens[0].lower()
    if head.startswith("grid:"):
        key = tokens[0][len("grid:") :]
        entry = grid_by_key().get(key)
        if entry is None:
            raise CLIError(f"no grid entry {key!r}")
        return replace(entry.recipe, description=f"grid:{key}", build=entry.build)
    if head in FAMILIES:
        try:
            return parse_family(tokens)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
    if len(pieces) == 1 and (os.path.exists(pieces[0]) or os.sep in pieces[0]):
        return _table_file(pieces[0])
    raise CLIError(
        f"cannot interpret input {' '.join(tokens)!r}: not a family spec, "
        "grid key, or readable file"
    )


def _table_file(path: str) -> Recipe:
    """The recipe of a table file: its text is read now, parsed on build."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise CLIError(f"cannot read {path}: {exc}") from None
    return Recipe(path, "table", lambda: load_table(text))


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failed write under `path` into bad input."""
    try:
        yield
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# shared report pieces


def _profile_data(q: FiniteQuandle) -> dict:
    p = q.profile()
    return {
        "order": p.order,
        "type": p.type,
        "connected": p.connected,
        "orbits": len(p.orbits),
        "inn_order": p.inn_order,
    }


def _profile_entry(doc: ReportDocument, q: FiniteQuandle):
    with doc.check("profile", "summary invariants of the quandle") as e:
        e.data = _profile_data(q)


def _build_quandle(build: Callable[[], FiniteQuandle], where: str = "") -> FiniteQuandle:
    """Run a table recipe; bad input other than a failed axiom is a CLIError."""
    try:
        return build()
    except AxiomViolation:
        raise
    except (ValueError, OSError) as exc:
        raise CLIError(f"{where}{exc}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_check(args) -> ReportDocument:
    parsed = parse_input(args.input)
    doc = ReportDocument(parsed.description, __version__)
    with doc.check("axioms", "the table satisfies the three quandle axioms") as e:
        q = _build_quandle(parsed.build)
        e.status, e.data = "pass", {"order": q.order}
    if not doc.failed:
        _profile_entry(doc, q)
    return doc


def cmd_invariants(args) -> ReportDocument:
    parsed = parse_input(args.input)
    doc = ReportDocument(parsed.description, __version__)
    q = _build_quandle(parsed.build)
    _profile_entry(doc, q)
    with doc.check(
        "abelianization", "abelianized adjoint group is free of rank the number of orbits"
    ) as e:
        ab = adjoint_abelianization(q)
        orbit_count = len(q.orbits())
        e.status = "pass" if ab == AbelianGroupInvariants(orbit_count, ()) else "fail"
        e.data = {"group": str(ab), "orbits": orbit_count}
    spec = parsed.alexander_spec
    if spec is not None:
        doc.add(
            "module",
            "module data of the linear construction",
            "reported",
            {
                "orders": list(spec.torsion_orders),
                "t_order": spec.t_order(),
                "connected": spec.is_connected(),
            },
        )
    return doc


def cmd_homology(args) -> ReportDocument:
    parsed = parse_input(args.input)
    doc = ReportDocument(parsed.description, __version__)
    q = _build_quandle(parsed.build)
    mode = QUANDLE if args.mode == "quandle" else RACK
    with doc.check("homology", f"degree-{args.degree} {args.mode} homology of the table") as e:
        group = homology(q, args.degree, mode, cap=args.cap_cells)
        e.data = {"group": str(group), "degree": args.degree, "mode": args.mode}
    return doc


def _linear_input(args, title: str) -> tuple[ReportDocument, AlexanderModuleSpec]:
    """The report, titled `title` and the input, and the module spec of a
    connected linear-family input."""
    parsed = parse_input(args.input)
    spec = parsed.alexander_spec
    if spec is None:
        raise CLIError("this command needs a linear-family input (alexander ...)")
    if not spec.is_connected():
        raise CLIError(f"{spec.label()} is not connected (1 - T is not onto)")
    return ReportDocument(title + parsed.description, __version__), spec


def cmd_adjoint(args) -> ReportDocument:
    doc, spec = _linear_input(args, "")
    model = _verify_clauwens(doc, spec)
    if model is not None:
        with doc.check("h2", "second homology read off the base-point stabilizer of the model") as e:
            e.data = {"group": str(model.stabilizer_h2())}
    return doc


def _verify_clauwens(doc: ReportDocument, spec: AlexanderModuleSpec) -> Optional[ClauwensGroup]:
    """Build the adjoint-group model once and run its checks on it; the
    model, or None when its relations failed and the rest was not run."""
    model = None
    with doc.check(
        "relations",
        "generators satisfy e(x <| y) = e(y)^-1 e(x) e(y) and act as the columns",
    ) as e:
        model = clauwens_group(spec)
        e.status, e.data = "pass", {"coker": str(model.coker_invariants)}
    if model is None:
        return None
    with doc.check("kernel-structure", "action kernel is exactly (type * Z) x coker") as e:
        t, coker = model.kernel()
        e.status, e.data = "pass", {"type": t, "coker": str(coker)}
    with doc.check(
        "central-power", "the type-th power of every generator is one central element"
    ) as e:
        e.status = "pass" if model.central_power() else "fail"
    return model


def _verify_homotopy(doc: ReportDocument, spec: AlexanderModuleSpec, cap: int):
    """The degree-k entry is skipped, before any chain or power table is
    built, when the terms its check would write, counted from the term
    tables (homotopy_terms), are more than the cap.  That count is an upper
    bound on the columns the check's compiled programs build."""
    verifier = None
    for degree, claim, key in (
        (2, "h1 after the rack boundary minus the group boundary after h2 "
            "equals type times the 2-cycle, on every pair", "pairs"),
        (3, "the degree-3 residual is independent of the first argument, matches "
            "its closed form, and the 3-cycle vanishes on repeated arguments", "triples"),
    ):
        with doc.check(f"degree-{degree}", claim) as e:
            needed = homotopy_terms(degree, spec.size, spec.t_order())
            if needed > cap:
                raise SizeCap(needed, cap)
            verifier = verifier or HomotopyVerifier(spec)
            r = verifier.degree_2() if degree == 2 else verifier.degree_3()
            e.status, e.data = "pass", {key: r.tuples_checked, "type": r.type}


def _verify_eisermann(doc: ReportDocument, spec: AlexanderModuleSpec, cap: int):
    with doc.check(
        "triple-oracle", "chain-level H2, stabilizer H2 and the presentation cokernel agree"
    ) as e:
        model = clauwens_group(spec)
        coker = model.coker_invariants
        stab = model.stabilizer_h2()
        chain = quandle_h2(model.quandle, cap=cap)
        e.status = "pass" if chain == stab == coker else "fail"
        e.data = {"chain": str(chain), "stabilizer": str(stab), "cokernel": str(coker)}


def _verify_covering(
    doc: ReportDocument, spec: AlexanderModuleSpec, cap: int
) -> Optional[CoveringInstance]:
    """Construct the universal covering and check it; None if it was not built."""
    inst = None
    with doc.check(
        "construction", "universal covering assembles and projects as a covering map"
    ) as e:
        inst = universal_covering_alexander(spec, cap=cap)
        e.status = "pass"
        e.data = {
            "total_order": inst.total.order,
            "fiber": inst.fiber_size,
            "base_order": inst.base.order,
        }
    if inst is not None:
        covering_properties(inst, doc, cap=cap)
    return inst


def covering_properties(
    inst: CoveringInstance, doc: ReportDocument, cap: int = DEFAULT_CELL_CAP
) -> None:
    """Verify the covering-theoretic properties of a constructed instance.

    Each property becomes one entry of doc: (a) the total space is
    connected, (b) its type equals the base type, (c) its second quandle
    homology is 0, and (d) the projection is a covering whose fibers all
    have fiber_size elements.  A cell cap on (c) skips it.  (c) holds for
    the connected Alexander inputs `covering` accepts, but not for every
    universal covering: the 12-element total of coxeter:A3 has H2 = Z/2.
    """
    total_q, base_t = inst.total, inst.base.type

    with doc.check("total_connected", "total space of the universal covering is connected") as e:
        e.status = "pass" if total_q.is_connected() else "fail"
        e.data = {"orbits": len(total_q.orbits())}

    with doc.check("type_preserved", "total space has the same type as the base") as e:
        e.status = "pass" if total_q.type == base_t else "fail"
        e.data = {"base_type": base_t, "total_type": total_q.type}

    with doc.check("h2_zero", "H2 of the simply connected total space is 0") as e:
        h2 = quandle_h2(total_q, cap=cap)
        e.status = "pass" if h2 == AbelianGroupInvariants(0, ()) else "fail"
        e.data = {"h2": str(h2)}

    with doc.check("projection_covering", "projection is a quandle covering") as e:
        try:
            covers = is_covering(inst.projection, inst.total, inst.base)
        except NotSurjective:
            covers = False
        sizes = {len(members) for members in inst.fibers().values()}
        e.status = "pass" if covers and sizes == {inst.fiber_size} else "fail"
        e.data = {"fiber_size": inst.fiber_size}


def _coxeter_suite(args) -> ReportDocument:
    """The coxeter suite reads a group name, or a `coxeter` spec or grid key;
    the group's table is built only when its order is within the cap."""
    tokens = [t for piece in args.input for t in piece.split()]
    if tokens and (tokens[0].lower() == "coxeter" or tokens[0].lower().startswith("grid:")):
        parsed = parse_input(args.input)
        if parsed.coxeter_kind is None:
            raise CLIError(f"coxeter suite needs a Coxeter group, got {parsed.description!r}")
        name, description = parsed.coxeter_kind, parsed.description
    else:
        name = " ".join(tokens)
        description = f"group {name}"
    try:
        order, build = parse_group_name(name)
    except ValueError as exc:
        raise CLIError(f"bad group: {exc}") from None
    doc = ReportDocument(f"verify coxeter: {description}", __version__)
    cap = args.cap_group
    with doc.check(
        "schur-2-power", "bar-complex H2 of the reflection group has only 2-power torsion"
    ) as e:
        if order > cap:
            e.status, e.data = "skipped", {"order": order, "cap": cap}
            return doc
        group = build()
        h2 = group_h2_bar(group, cap=cap)
        ok = h2.free_rank == 0 and all(d & (d - 1) == 0 for d in h2.torsion)
        e.status = "pass" if ok else "fail"
        e.data = {"group": group.name, "h2": str(h2), "order": group.order}
    return doc


def _on_module(check: Callable[[ReportDocument, AlexanderModuleSpec, int], object]):
    """The suite that runs `check(doc, spec, cap_cells)` on a connected linear input."""

    def suite(args) -> ReportDocument:
        doc, spec = _linear_input(args, f"verify {args.suite}: ")
        check(doc, spec, args.cap_cells)
        return doc

    return suite


SUITES = {
    "clauwens": _on_module(lambda doc, spec, cap: _verify_clauwens(doc, spec)),
    "homotopy": _on_module(_verify_homotopy),
    "eisermann": _on_module(_verify_eisermann),
    "covering": _on_module(_verify_covering),
    "coxeter": _coxeter_suite,
}


def cmd_verify(args) -> ReportDocument:
    return SUITES[args.suite](args)


def cmd_covering(args) -> ReportDocument:
    doc, spec = _linear_input(args, "covering: ")
    inst = _verify_covering(doc, spec, args.cap_cells)
    if args.export_dir and inst is not None and not doc.failed:
        with _writing(args.export_dir):
            written = export_covering(inst, args.export_dir)
        doc.add(
            "export",
            "base table, total table and projection map written to disk",
            "reported",
            {"files": sorted(os.path.basename(p) for p in written)},
        )
    return doc


# ---------------------------------------------------------------------------
# census


def _census_row(doc: ReportDocument, entry: GridEntry, cap: int) -> None:
    """Build one grid entry and measure it into doc."""
    with doc.check(
        entry.key, "entry builds, passes the axioms, and matches its invariant contracts"
    ) as e:
        e.status, e.data = "pass", {"kind": entry.kind}
        try:
            q = entry.build()
            e.data.update(_profile_data(q))
            ab = adjoint_abelianization(q)
            e.data["ab"] = str(ab)
            if ab != AbelianGroupInvariants(e.data["orbits"], ()):
                e.status = "fail"
                e.data["detail"] = "abelianization is not free of orbit rank"
            spec = entry.alexander_spec
            oracles = ()
            if spec is not None and spec.is_connected():
                model = ClauwensGroup(spec)
                t, coker = model.kernel()
                e.data["kernel_type"] = t
                e.data["kernel_coker"] = str(coker)
                oracles = (model.stabilizer_h2(), coker)
            chain = quandle_h2(q, cap=cap)
            e.data["h2"] = str(chain)
            if any(chain != h2 for h2 in oracles):
                e.status = "fail"
                detail = "H2 oracles disagree: chain {}, stabilizer {}, cokernel {}"
                e.data["detail"] = detail.format(chain, *oracles)
        except ValueError as exc:
            e.status = "fail"
            e.data["detail"] = str(exc)


def cmd_census(args) -> ReportDocument:
    if args.dir:
        doc = ReportDocument(f"census: directory {args.dir}", __version__)
        try:
            names = sorted(
                f for f in os.listdir(args.dir) if f.endswith(".quandle")
            )
        except OSError as exc:
            raise CLIError(f"cannot list {args.dir}: {exc}") from None
        if not names:
            raise CLIError(f"no .quandle files in {args.dir}")
        for name in names:
            path = os.path.join(args.dir, name)
            with doc.check(name, "the file holds a valid quandle table") as e:
                q = _build_quandle(_table_file(path).build, f"{path}: ")
                e.status, e.data = "pass", _profile_data(q)
        return doc

    entries = standard_grid()
    doc = ReportDocument(f"census: built-in grid ({len(entries)} entries)", __version__)
    for entry in entries:
        _census_row(doc, entry, args.cap_cells)
    return doc


# ---------------------------------------------------------------------------
# the command table


def _option(*flags, **kwargs):
    """One option, as the arguments of `add_argument`."""
    return flags, kwargs


INPUT = _option(
    "input",
    nargs="+",
    help="family spec (e.g. alexander orders=3,3 t=-1), grid:<key>, or a table file",
)
CAP_CELLS = _option("--cap-cells", type=int, default=DEFAULT_CELL_CAP, help="cell-count cap")
COMMON = (
    _option("--timings", action="store_true", help="include per-check seconds"),
    _option("--out", help="write the report to this file instead of stdout"),
)

# name: (help, handler, options before COMMON)
COMMANDS = {
    "check": ("validate the axioms and profile the input", cmd_check, [INPUT]),
    "invariants": ("profile plus abelianization and module data", cmd_invariants, [INPUT]),
    "homology": ("rack/quandle homology of the input", cmd_homology, [
        INPUT,
        _option("--mode", choices=["rack", "quandle"], default="quandle"),
        _option("--degree", type=int, choices=[2, 3], default=2),
        CAP_CELLS,
    ]),
    "adjoint": ("adjoint-group model of a linear quandle", cmd_adjoint, [INPUT]),
    "verify": ("run a verification suite", cmd_verify, [
        _option("--suite", required=True, choices=list(SUITES)),
        INPUT,
        CAP_CELLS,
        _option("--cap-group", type=int, default=BAR_GROUP_CAP, help="bar-complex group cap"),
    ]),
    "covering": ("universal covering of a linear quandle", cmd_covering, [
        INPUT,
        CAP_CELLS,
        _option("--export-dir", help="write base/total tables and the projection map here"),
    ]),
    "census": ("survey the built-in grid or a directory", cmd_census, [
        _option("--dir", help="directory of .quandle files (default: built-in grid)"),
        CAP_CELLS,
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandles",
        description="exact computations with finite quandles",
    )
    parser.add_argument("--version", action="version", version=f"quandles {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flags, kwargs in (*options, *COMMON):
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=handler)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        doc = args.func(args)
        text = doc.render(timings=args.timings)
        if args.out:
            with _writing(args.out), open(args.out, "w") as fh:
                fh.write(text)
        else:
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError as exc:
                # a closed pipe or a full disk: send what is left, and the
                # flush at exit, to devnull, as the signal module's docs advise
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                if not isinstance(exc, BrokenPipeError):
                    raise CLIError(f"cannot write standard output: {exc}") from None
    except (CLIError, NotConnected, AxiomViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return doc.exit_code()


if __name__ == "__main__":
    sys.exit(main())
