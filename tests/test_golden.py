"""Golden report bytes: rendered reports and exported covering files.

Every file under tests/golden/ is the exact output of one command (or,
for covering-labels.txt, the element labels of three universal coverings);
the tests re-run it and compare bytes.  Regenerate the files only for
an intended change of report content:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os

import pytest

from quandles.cli import main, parse_input
from quandles.coverings import universal_covering_alexander

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SPECS = {
    "neg33": "alexander orders=3,3 t=-1",
    "fib22": "alexander orders=2,2 t=0,1;1,1",
    "z5t2": "alexander orders=5 t=2",
}
SUITES = ("clauwens", "homotopy", "eisermann", "covering")

REPORTS = {f"adjoint-{name}": ["adjoint", spec] for name, spec in SPECS.items()}
REPORTS.update(
    (f"verify-{suite}-{name}", ["verify", "--suite", suite, spec])
    for suite in SUITES
    for name, spec in SPECS.items()
)

EXPORT_SPEC = SPECS["neg33"]
EXPORT_FILES = ("base.quandle", "total.quandle", "projection.map")


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(list(argv))
    return out.getvalue()


def export(directory) -> None:
    render(["covering", EXPORT_SPEC, "--export-dir", str(directory)])


def covering_labels() -> str:
    """One line per spec: the labels of its universal covering, in order."""
    lines = []
    for name, spec in sorted(SPECS.items()):
        total = universal_covering_alexander(parse_input([spec]).alexander_spec).total
        lines.append(f"{name}: {' '.join(total.labels)}")
    return "\n".join(lines) + "\n"


def read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_bytes(name):
    expected = read(os.path.join(GOLDEN, name + ".txt"))
    assert render(REPORTS[name]).encode() == expected


def test_exported_covering_bytes(tmp_path):
    export(tmp_path)
    for fname in EXPORT_FILES:
        assert read(tmp_path / fname) == read(os.path.join(GOLDEN, "export-neg33", fname))


def test_covering_label_bytes():
    assert covering_labels().encode() == read(os.path.join(GOLDEN, "covering-labels.txt"))


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in sorted(REPORTS.items()):
        with open(os.path.join(GOLDEN, name + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(render(argv))
    export(os.path.join(GOLDEN, "export-neg33"))
    with open(os.path.join(GOLDEN, "covering-labels.txt"), "w", encoding="utf-8") as fh:
        fh.write(covering_labels())
