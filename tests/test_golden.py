"""Golden report bytes: rendered reports and exported covering files.

Every report file under tests/golden/ is the exact output of one command
(or, for covering-labels.txt, the element labels of three universal
coverings); the tests re-run it and compare bytes.  Commands run from
inside tests/golden/, so table-file inputs (census-tables/ and
broken-iii.quandle, themselves written by this script) are named by
relative paths and the report headers do not depend on the checkout's
location.  Regenerate the files only for an intended change of report
content:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os

import pytest

from quandles import families
from quandles.cli import main, parse_input
from quandles.core import dump_table
from quandles.coverings import universal_covering_alexander
from quandles.fields import FiniteField

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

# profile reports: each prints order, type, orbits and inn_order, so they
# pin the Inn stabilizer chain and table validation byte for byte
REPORTS.update(
    {
        "check-dihedral8": ["check", "dihedral n=8"],
        "check-broken-iii": ["check", "broken-iii.quandle"],
        "invariants-z5t2": ["invariants", SPECS["z5t2"]],
        "invariants-symplectic-g1-q5": ["invariants", "grid:symplectic:g1:q5"],
        "census-dir": ["census", "--dir", "census-tables"],
    }
)

# homology and built-in census reports, and every `skipped` path: a cell
# cap on homology, on the homotopy identities, on the triple oracle, on the
# covering's construction and on its H2 alone (each with data.needed_cells
# and data.cap), and the group cap of the coxeter suite (with data.order
# and data.cap) next to the same suite run in full
REPORTS.update(
    {
        "census": ["census"],
        "homology-dihedral3": ["homology", "dihedral n=3"],
        "homology-rack-trivial2": ["homology", "--mode", "rack", "trivial n=2"],
        "homology-degree3-dihedral4": ["homology", "--degree", "3", "dihedral n=4"],
        "homology-cap10-dihedral8": ["homology", "--cap-cells", "10", "dihedral n=8"],
        "homology-symplectic-g1-q9": ["homology", "symplectic g=1 q=9"],
        "homology-spherical-n2-q9": ["homology", "spherical n=2 q=9"],
        "verify-eisermann-cap10-neg33": [
            "verify", "--suite", "eisermann", "--cap-cells", "10", SPECS["neg33"]
        ],
        "verify-homotopy-cap10-fib22": [
            "verify", "--suite", "homotopy", "--cap-cells", "10", SPECS["fib22"]
        ],
        "verify-covering-cap10-fib22": [
            "verify", "--suite", "covering", "--cap-cells", "10", SPECS["fib22"]
        ],
        "verify-covering-cap100-fib22": [
            "verify", "--suite", "covering", "--cap-cells", "100", SPECS["fib22"]
        ],
        "verify-coxeter-s3": ["verify", "--suite", "coxeter", "s3"],
        "verify-coxeter-cap2-s3": ["verify", "--suite", "coxeter", "--cap-group", "2", "s3"],
    }
)

# (x <| y) <| z != (x <| z) <| (y <| z) first at (x, y, z) = (2, 0, 2)
BROKEN_III = [[0, 0, 1, 1], [1, 1, 0, 0], [3, 2, 2, 2], [2, 3, 3, 3]]
CENSUS_TABLES = {
    "dihedral-6.quandle": lambda: families.dihedral(6),
    "symplectic-g1-q3.quandle": lambda: families.symplectic(1, FiniteField.of(3)),
}

EXPORT_SPEC = SPECS["neg33"]
EXPORT_FILES = ("base.quandle", "total.quandle", "projection.map")


def render(argv) -> str:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)  # contextlib.chdir needs Python 3.11
    try:
        with contextlib.redirect_stdout(out):
            main(list(argv))
    finally:
        os.chdir(cwd)
    return out.getvalue()


def write_input_tables() -> None:
    """The table files that the `check` and `census --dir` reports read."""
    with open(os.path.join(GOLDEN, "broken-iii.quandle"), "w", encoding="utf-8") as fh:
        fh.write("4\n" + "".join(" ".join(map(str, row)) + "\n" for row in BROKEN_III))
    os.makedirs(os.path.join(GOLDEN, "census-tables"), exist_ok=True)
    for fname, build in CENSUS_TABLES.items():
        with open(os.path.join(GOLDEN, "census-tables", fname), "w", encoding="utf-8") as fh:
            fh.write(dump_table(build()))


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
    write_input_tables()
    for name, argv in sorted(REPORTS.items()):
        with open(os.path.join(GOLDEN, name + ".txt"), "w", encoding="utf-8") as fh:
            fh.write(render(argv))
    export(os.path.join(GOLDEN, "export-neg33"))
    with open(os.path.join(GOLDEN, "covering-labels.txt"), "w", encoding="utf-8") as fh:
        fh.write(covering_labels())
