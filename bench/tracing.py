"""Span recorder for the traced run.

The recorder wraps public functions and methods of the library from the
outside: every module attribute bound to a wrapped function is rebound to
the wrapper, so calls made inside the library are recorded too.  Nothing
in the library changes.  Each span keeps its name, start, end, parent and
job id in memory; the caller writes them out when the run ends.

A layer's time is the self time of its spans: the span's duration minus
the time its direct children cover.  Counts come from public return
values and public methods, read after the wrapped call returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref

# span name -> per-layer time metric its self time counts toward
SPAN_METRIC = {
    "intlin.smith_normal_form": "intlin.snf_s",
    "intlin.cokernel": "intlin.snf_s",
    "intlin.homology_at": "intlin.snf_s",
    "intlin.compose_is_zero": "intlin.compose_s",
    "intlin.rank": "intlin.rank_s",
    "homology.RackComplexSlice.boundary": "homology.assemble_s",
    "homology.adjoint_abelianization": "homology.abelianization_s",
    "adjoint.clauwens_group": "adjoint.model_s",
    "adjoint.ClauwensGroup": "adjoint.model_s",
    "adjoint.action_kernel": "adjoint.kernel_s",
    "adjoint.central_power_check": "adjoint.central_s",
    "adjoint.eisermann_h2": "adjoint.eisermann_s",
    "adjoint.verify_homotopy_2": "adjoint.homotopy2_s",
    "adjoint.verify_homotopy_3": "adjoint.homotopy3_s",
    "coverings.universal_covering_alexander": "coverings.construct_s",
    "core.load_table": "core.validate_s",
    "core.validate": "core.validate_s",
    "core.FiniteQuandle.type": "core.type_orbits_s",
    "core.FiniteQuandle.orbits": "core.type_orbits_s",
    "core.FiniteQuandle.inn": "perms.inn_chain_s",
    "perms.PermGroup.order": "perms.inn_chain_s",
    "families.build": "families.build_s",
    "grid.GridEntry.build": "families.build_s",
    "fields.FiniteField.of": "families.build_s",
    "cli.main": "cli.command_s",
}

COUNT_METRICS = (
    "intlin.snf_input_nnz",
    "intlin.snf_unit_invariants",
    "homology.cols",
    "homology.nnz",
    "adjoint.mul_calls",
    "adjoint.tuples_checked",
    "coverings.total_order",
    "core.validate_cells",
    "perms.chain_levels",
    "perms.transversal_points",
    "perms.schreier_gens",
    "families.build_calls",
)

FAMILY_BUILDERS = (
    "alexander",
    "dihedral",
    "trivial",
    "symplectic",
    "spherical",
    "core",
    "coxeter_reflection_quandle",
    "conjugation_reflections",
)


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, job id]
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNT_METRICS, 0)
        self.counts["intlin.snf_rank"] = 0
        self.counts["intlin.snf_cols"] = 0
        self.job = "setup"
        self._stack: list[int] = []
        self._last_rank = 0
        self._chains_seen = weakref.WeakSet()

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def wrap(self, name, fn, after=None):
        """fn inside a span; `after(args, result)` counts once it returns."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def counted(self, name, fn):
        """fn with a call counter and no span (for calls too frequent to span)."""
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    # -- count hooks -------------------------------------------------------

    # The Smith-form inputs are not modified by the calls, so their size is
    # read afterwards.
    def _snf(self, matrix, rank: int, units: int) -> None:
        self.add("intlin.snf_input_nnz", matrix.nnz)
        self.add("intlin.snf_rank", rank)
        self.add("intlin.snf_cols", matrix.cols)
        self.add("intlin.snf_unit_invariants", units)

    def _after_smith(self, args, result):
        diag = result[0] if isinstance(result, tuple) else result
        self._snf(args[0], len(diag), sum(1 for d in diag if d == 1))

    def _after_cokernel(self, args, result):
        rank = args[0].rows - result.free_rank
        self._snf(args[0], rank, rank - len(result.torsion))

    def _after_rank(self, args, result):
        self._last_rank = result

    def _after_homology_at(self, args, result):
        # free = rows - rank(out) - rank(in), and rank(out) was the nested rank call
        boundary_in = args[0]
        rank = boundary_in.rows - self._last_rank - result.free_rank
        self._snf(boundary_in, rank, rank - len(result.torsion))

    def _after_boundary(self, args, result):
        self.add("homology.cols", result.cols)
        self.add("homology.nnz", result.nnz)

    def _after_homotopy(self, args, result):
        self.add("adjoint.tuples_checked", result.tuples_checked)

    def _after_covering(self, args, result):
        self.add("coverings.total_order", result.total.order)

    def _after_validate(self, args, result):
        self.add("core.validate_cells", result.order**3)

    def _after_order(self, args, result):
        group = args[0]
        if group in self._chains_seen:
            return
        self._chains_seen.add(group)
        chain = group.chain()
        self.add("perms.chain_levels", len(chain))
        self.add("perms.transversal_points", sum(len(level.transversal) for level in chain))
        self.add("perms.schreier_gens", sum(len(level.gens) for level in chain))

    def _after_build(self, args, result):
        self.add("families.build_calls", 1)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the library's public entry points; call before any job runs."""
        mod = {name: importlib.import_module(f"quandles.{name}") for name in (
            "intlin", "homology", "adjoint", "coverings", "core", "perms",
            "families", "grid", "fields", "cli",
        )}

        def function(module, attr, span, after=None):
            original = getattr(mod[module], attr)
            _rebind(original, self.wrap(span, original, after))

        function("intlin", "smith_normal_form", "intlin.smith_normal_form", self._after_smith)
        function("intlin", "cokernel", "intlin.cokernel", self._after_cokernel)
        function("intlin", "homology_at", "intlin.homology_at", self._after_homology_at)
        function("intlin", "compose_is_zero", "intlin.compose_is_zero")
        function("intlin", "rank", "intlin.rank", after=self._after_rank)
        function("homology", "adjoint_abelianization", "homology.adjoint_abelianization")
        for attr in ("clauwens_group", "action_kernel", "central_power_check", "eisermann_h2"):
            function("adjoint", attr, f"adjoint.{attr}")
        for attr in ("verify_homotopy_2", "verify_homotopy_3"):
            function("adjoint", attr, f"adjoint.{attr}", after=self._after_homotopy)
        function("coverings", "universal_covering_alexander",
                 "coverings.universal_covering_alexander", after=self._after_covering)
        function("core", "load_table", "core.load_table")
        function("core", "validate", "core.validate", after=self._after_validate)
        for attr in FAMILY_BUILDERS:
            function("families", attr, "families.build", after=self._after_build)
        function("cli", "main", "cli.main")

        boundary = mod["homology"].RackComplexSlice
        boundary.boundary = self.wrap(
            "homology.RackComplexSlice.boundary", boundary.boundary, after=self._after_boundary
        )
        group = mod["adjoint"].ClauwensGroup
        group.__init__ = self.wrap("adjoint.ClauwensGroup", group.__init__)
        group.mul = self.counted("adjoint.mul_calls", group.mul)
        quandle = mod["core"].FiniteQuandle
        quandle.type = property(self.wrap("core.FiniteQuandle.type", quandle.type.fget))
        quandle.orbits = self.wrap("core.FiniteQuandle.orbits", quandle.orbits)
        quandle.inn = self.wrap("core.FiniteQuandle.inn", quandle.inn)
        perm_group = mod["perms"].PermGroup
        perm_group.order = property(
            self.wrap("perms.PermGroup.order", perm_group.order.fget, after=self._after_order)
        )
        entry = mod["grid"].GridEntry
        entry.build = self.wrap("grid.GridEntry.build", entry.build)
        field = mod["fields"].FiniteField
        field.of = classmethod(self.wrap("fields.FiniteField.of", field.of.__func__))

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times in seconds plus every counter."""
        out = dict.fromkeys(sorted(set(SPAN_METRIC.values())), 0.0)
        for span, own in zip(self.spans, self.self_times()):
            out[SPAN_METRIC[span[0]]] += own
        out.update(self.counts)
        cols = self.counts["intlin.snf_cols"]
        out["intlin.snf_rank_per_col"] = self.counts["intlin.snf_rank"] / cols if cols else 0.0
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}, fh
            )


def _rebind(original, replacement) -> None:
    """Point every library module attribute bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "quandles" or name.startswith("quandles."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
