"""Deterministic structured reports for checks and pipelines.

A report is a list of check entries, each with a stable id, a claim
stated in plain language, a status, and a flat data payload.  Rendering
is byte-deterministic: keys are emitted in sorted order and timings are
excluded unless explicitly requested.

Schema (one self-describing text document):

    report-version: 1
    tool: quandles <version>
    input: <input description>
    checks: <count>
    result: pass | fail

    [<check id>]
    claim: <sentence>
    status: pass | fail | skipped | reported
    data.<key>: <value>
    seconds: <float>          (only when timings are enabled)

Statuses: pass/fail are assertions; skipped marks a check not run (e.g.
size cap); reported marks informational values carrying no assertion.

Checks are run inside `ReportDocument.check`, which times exactly its
body (the entry's seconds) and turns the exceptions that carry a verdict
into a status, merging their payload into the data recorded so far:

    SizeCap          -> skipped, data.needed_cells and data.cap
    AxiomViolation   -> fail, data.axiom and data.witness
    IdentityFailed   -> fail, data.at and data.detail
    AssertionError   -> fail, data.detail

Any other exception propagates and adds no entry.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .adjoint import IdentityFailed
from .core import AxiomViolation
from .homology import SizeCap

TOOL_NAME = "quandles"
REPORT_VERSION = 1

_STATUSES = ("pass", "fail", "skipped", "reported")


def format_value(v) -> str:
    """Canonical single-line rendering for payload values."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(format_value(x) for x in v) + "]"
    return str(v)


@dataclass
class CheckEntry:
    check_id: str
    claim: str
    status: str
    data: dict = field(default_factory=dict)
    seconds: float | None = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


class ReportDocument:
    """An ordered collection of check entries with deterministic rendering."""

    def __init__(self, input_spec: str, tool_version: str):
        self.input_spec = input_spec
        self.tool_version = tool_version
        self.entries: list[CheckEntry] = []

    def add(
        self,
        check_id: str,
        claim: str,
        status: str,
        data: dict | None = None,
        seconds: float | None = None,
    ) -> CheckEntry:
        if any(e.check_id == check_id for e in self.entries):
            raise ValueError(f"duplicate check id {check_id!r}")
        entry = CheckEntry(check_id, claim, status, dict(data or {}), seconds)
        self.entries.append(entry)
        return entry

    @contextmanager
    def check(self, check_id: str, claim: str):
        """Run the body as one check; add its entry on exit.

        The body sets the yielded entry's status (reported if it sets
        none) and data.
        """
        entry = CheckEntry(check_id, claim, "reported")
        start = time.perf_counter()
        try:
            yield entry
        except SizeCap as exc:
            entry.status = "skipped"
            entry.data.update(needed_cells=exc.needed, cap=exc.cap)
        except AxiomViolation as exc:
            entry.status = "fail"
            entry.data.update(axiom=exc.axiom, witness=exc.witness)
        except IdentityFailed as exc:
            entry.status = "fail"
            entry.data.update(at=str(exc.tuple), detail=str(exc))
        except AssertionError as exc:
            entry.status = "fail"
            entry.data["detail"] = str(exc)
        self.add(check_id, claim, entry.status, entry.data, time.perf_counter() - start)

    @property
    def failed(self) -> bool:
        return any(e.status == "fail" for e in self.entries)

    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def render(self, timings: bool = False) -> str:
        lines = [
            f"report-version: {REPORT_VERSION}",
            f"tool: {TOOL_NAME} {self.tool_version}",
            f"input: {self.input_spec}",
            f"checks: {len(self.entries)}",
            f"result: {'fail' if self.failed else 'pass'}",
        ]
        for e in self.entries:
            lines.append("")
            lines.append(f"[{e.check_id}]")
            lines.append(f"claim: {e.claim}")
            lines.append(f"status: {e.status}")
            for k in sorted(e.data):
                lines.append(f"data.{k}: {format_value(e.data[k])}")
            if timings and e.seconds is not None:
                lines.append(f"seconds: {e.seconds:.3f}")
        lines.append("")
        return "\n".join(lines)
