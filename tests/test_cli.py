"""The command-line frontend: parsing, exit codes, report golden checks."""

import argparse
import errno
import os
import subprocess
import sys
import time

import pytest

from quandles import adjoint, cli, families
from quandles.adjoint import ClauwensGroup, HomotopyVerifier, homotopy_terms
from quandles.cli import CLIError, main, parse_input
from quandles.core import AxiomViolation, FiniteQuandle, dump_table
from quandles.coverings import universal_covering_alexander
from quandles.families import AlexanderModuleSpec
from quandles.groups import TABLE_LIMIT
from quandles.homology import DEFAULT_CELL_CAP
from quandles.intlin import AbelianGroupInvariants

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# the module (Z/2)^8 with T the companion matrix of x^8 + x^4 + x^3 + x^2 + 1,
# primitive over F_2: a connected quandle of order 256 and type 255
MODULE_2E8 = (
    "alexander orders=2,2,2,2,2,2,2,2 t=0,0,0,0,0,0,0,1;1,0,0,0,0,0,0,0;0,1,0,0,0,0,0,1;"
    "0,0,1,0,0,0,0,1;0,0,0,1,0,0,0,1;0,0,0,0,1,0,0,0;0,0,0,0,0,1,0,0;0,0,0,0,0,0,1,0"
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_cli(*argv, timeout=10):
    """Run the command in a fresh process, so a slow path hits the timeout."""
    return subprocess.run(
        [sys.executable, "-m", "quandles.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=timeout,
    )


class TestParseInput:
    def test_family_with_keys(self):
        parsed = parse_input(["alexander", "orders=3,3", "t=-1"])
        assert parsed.alexander_spec is not None
        assert parsed.alexander_spec.size == 9

    def test_family_positional(self):
        parsed = parse_input(["alexander", "3", "t=-1"])
        assert parsed.alexander_spec.size == 3

    def test_single_quoted_string(self):
        parsed = parse_input(["dihedral n=5"])
        assert parsed.build().order == 5

    def test_matrix_t(self):
        parsed = parse_input(["alexander", "orders=2,2", "t=0,1;1,1"])
        assert parsed.alexander_spec.t_order() == 3

    def test_grid_key(self):
        parsed = parse_input(["grid:trivial:2"])
        assert parsed.build().order == 2

    def test_errors(self):
        for bad in (
            ["alexander", "orders=3"],  # missing t
            ["alexander", "orders=3", "t=1", "x=2"],  # unknown key
            ["spherical", "n=2", "q=4"],  # even characteristic
            ["core", "group=monster"],
            ["grid:nope"],
            ["no_such_family", "n=1"],
            [],
        ):
            with pytest.raises(CLIError):
                parse_input(bad)


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run(capsys, "check", "dihedral", "n=3")
        assert code == 0
        assert "result: pass" in out

    def test_axiom_failure_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.quandle"
        bad.write_text("3\n0 1 2\n1 1 1\n2 2 2\n")
        code, out, _ = run(capsys, "check", str(bad))
        assert code == 1
        assert "result: fail" in out
        assert "data.axiom: ii" in out

    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "check", "alexander", "orders=6", "t=2")
        assert code == 2
        assert "error:" in err

    def test_precondition_error_is_two(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "clauwens", "alexander", "4", "t=-1")
        assert code == 2
        assert "not connected" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "coxeter", "cyclic:0"],
            ["verify", "--suite", "coxeter", "cyclic:-3"],
            ["check", "core group=cyclic:0"],
        ],
    )
    def test_empty_group_is_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "a group needs at least its identity 0" in err

    @pytest.mark.parametrize("label", ["A0", "coxeter type=A0", "I2(2)", "A400", "I2(3000)"])
    def test_bad_coxeter_label_is_two(self, capsys, label):
        # `check "coxeter type=A0"` already refused A0, which the suite read as S_1;
        # A400 and I2(3000) are refused by their order, before any permutation is built
        code, out, err = run(capsys, "verify", "--suite", "coxeter", label)
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize("command", ["invariants", "homology"])
    def test_axiom_failure_outside_a_check_is_two(self, capsys, command):
        code, out, err = run(capsys, command, os.path.join(GOLDEN, "broken-iii.quandle"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: axiom (iii) fails: ")

    @pytest.mark.parametrize("degree", [2, 3])
    def test_a_failing_homotopy_identity_is_one(self, capsys, monkeypatch, degree):
        # flip the first term of the h_k table: the degree-k identity must fail
        table = getattr(adjoint, f"H{degree}")
        (coeff, entries), *rest = table.terms
        monkeypatch.setattr(adjoint, f"H{degree}", table._replace(terms=((-coeff, entries), *rest)))
        code, out, _ = run(capsys, "verify", "--suite", "homotopy", "alexander orders=3 t=-1")
        assert code == 1
        block = next(b for b in out.split("\n\n") if b.startswith(f"[degree-{degree}]"))
        fields = dict(line.split(": ", 1) for line in block.splitlines()[1:])
        assert fields["status"] == "fail"
        # the first failing tuple in the order the verifier walks them
        v, n = HomotopyVerifier(AlexanderModuleSpec.scalar((3,), -1)), 3
        if degree == 2:
            at = next((x, y) for x in range(n) for y in range(n) if v.residual_2(x, y))
            lemma = "degree-2 homotopy identity"
        else:
            at = next(
                (x, y, z) for y in range(n) for z in range(n) for x in range(n)
                if v.residual_3(x, y, z) != v.residual_3_template(y, z)
            )
            lemma = "degree-3 residual differs from its closed form"
        assert fields["data.at"] == str(at)
        assert fields["data.detail"].startswith(f"{lemma} fails at {at}: nonzero difference ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["adjoint"],
            ["verify", "--suite", "eisermann"],
            ["verify", "--suite", "covering"],
            ["covering"],
        ],
    )
    def test_covering_input_has_no_module(self, capsys, argv):
        code, out, err = run(capsys, *argv, "covering orders=3,3 t=-1")
        assert code == 2
        assert out == ""
        assert "linear-family input" in err


class TestCommands:
    def test_homology_quandle(self, capsys):
        code, out, _ = run(capsys, "homology", "dihedral", "n=3")
        assert code == 0
        assert "data.group: 0" in out

    def test_homology_rack_mode(self, capsys):
        code, out, _ = run(capsys, "homology", "--mode", "rack", "trivial", "n=2")
        assert code == 0
        assert "data.group: Z^4" in out

    def test_homology_cap_skips(self, capsys):
        code, out, _ = run(
            capsys, "homology", "--cap-cells", "10", "dihedral", "n=8"
        )
        assert code == 0
        assert "status: skipped" in out

    def test_invariants(self, capsys):
        code, out, _ = run(capsys, "invariants", "alexander", "orders=5", "t=2")
        assert code == 0
        assert "data.t_order: 4" in out
        assert "abelianized adjoint group" in out

    def test_invariants_of_covering_has_no_module_entry(self, capsys):
        code, out, _ = run(capsys, "invariants", "covering orders=3,3 t=-1")
        assert code == 0
        assert "data.order: 27" in out
        assert "[module]" not in out

    def test_adjoint(self, capsys):
        code, out, _ = run(capsys, "adjoint", "alexander", "orders=2,2", "t=0,1;1,1")
        assert code == 0
        assert "data.coker: Z/2" in out

    def test_verify_homotopy(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "homotopy", "alexander", "3", "t=-1")
        assert code == 0
        assert out.count("status: pass") == 2

    def test_verify_eisermann(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "eisermann", "alexander", "orders=3,3", "t=-1"
        )
        assert code == 0
        assert "data.chain: Z/3" in out

    def test_verify_coxeter_group_name(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "coxeter", "s3")
        assert code == 0
        assert "data.h2: 0" in out

    def test_verify_coxeter_label(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "coxeter", "B2")
        assert code == 0
        assert "status: pass" in out

    def test_verify_coxeter_grid_key(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "coxeter", "grid:coxeter:A3")
        assert code == 0
        assert "input: verify coxeter: grid:coxeter:A3" in out
        assert "data.order: 24" in out
        code, _, err = run(capsys, "verify", "--suite", "coxeter", "grid:dihedral:3")
        assert code == 2
        assert "needs a Coxeter group" in err

    def test_covering_with_export(self, capsys, tmp_path):
        exp = tmp_path / "exported"
        code, out, _ = run(
            capsys,
            "covering",
            "alexander",
            "orders=3,3",
            "t=-1",
            "--export-dir",
            str(exp),
        )
        assert code == 0
        assert (exp / "total.quandle").exists()
        assert "data.total_order: 27" in out

    def test_covering_export_builds_once(self, capsys, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return universal_covering_alexander(*args, **kwargs)

        monkeypatch.setattr(cli, "universal_covering_alexander", counting)
        code, _, _ = run(
            capsys, "covering", "alexander orders=3,3 t=-1", "--export-dir", str(tmp_path)
        )
        assert code == 0
        assert (tmp_path / "projection.map").exists()
        assert len(calls) == 1

    def test_covering_axiom_failure_is_a_fail_entry(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise AxiomViolation("iii", (0, 1, 2), "0 <| 1 <| 2 differs")

        monkeypatch.setattr(cli, "universal_covering_alexander", broken)
        code, out, _ = run(capsys, "verify", "--suite", "covering", "alexander orders=3,3 t=-1")
        assert code == 1
        blocks = out.rstrip("\n").split("\n\n")[1:]
        assert len(blocks) == 1
        assert blocks[0].split("\n")[2:] == [
            "status: fail",
            "data.axiom: iii",
            "data.witness: [0, 1, 2]",
        ]

    def test_covering_timings_per_property(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "covering", "alexander orders=3,3 t=-1", "--timings"
        )
        assert code == 0
        blocks = out.rstrip("\n").split("\n\n")[1:]
        assert len(blocks) == 5  # construction and four properties
        for block in blocks:
            assert sum(line.startswith("seconds: ") for line in block.split("\n")) == 1, block

    def test_profile_seconds_cover_the_profile(self, capsys, monkeypatch):
        profile = FiniteQuandle.profile

        def slow_profile(self):
            time.sleep(0.05)
            return profile(self)

        monkeypatch.setattr(FiniteQuandle, "profile", slow_profile)
        code, out, _ = run(capsys, "check", "dihedral n=3", "--timings")
        assert code == 0
        block = next(b for b in out.split("\n\n") if b.startswith("[profile]"))
        seconds = float(block.split("seconds: ")[1].split()[0])
        assert seconds >= 0.05

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("action_kernel", ["adjoint", "alexander orders=3 t=-1"]),
            ("clauwens_group", ["verify", "--suite", "eisermann", "alexander orders=3 t=-1"]),
        ],
    )
    def test_model_assertion_is_a_fail_entry(self, capsys, monkeypatch, name, argv):
        def broken(*args):
            raise AssertionError("model relation broken")

        # action_kernel(spec) is ClauwensGroup.kernel on one model; the CLI calls the method
        owner, attr = (ClauwensGroup, "kernel") if name == "action_kernel" else (cli, name)
        monkeypatch.setattr(owner, attr, broken)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "status: fail" in out
        assert "data.detail: model relation broken" in out.splitlines()

    def test_clauwens_suite_stops_after_failed_relations(self, capsys, monkeypatch):
        def broken(self):
            raise AssertionError("relation fails at (0, 1)")

        monkeypatch.setattr(ClauwensGroup, "verify", broken)
        code, out, _ = run(capsys, "verify", "--suite", "clauwens", "alexander orders=3 t=-1")
        assert code == 1
        assert "checks: 1" in out
        assert "[relations]" in out and "[kernel-structure]" not in out

    def test_adjoint_reports_past_a_failed_kernel(self, capsys, monkeypatch):
        def broken(self):
            raise AssertionError("kernel broken")

        monkeypatch.setattr(ClauwensGroup, "kernel", broken)
        code, out, _ = run(capsys, "adjoint", "alexander orders=3 t=-1")
        assert code == 1
        ids = [line for line in out.splitlines() if line.startswith("[")]
        assert ids == ["[relations]", "[kernel-structure]", "[central-power]", "[h2]"]
        assert out.endswith("status: reported\ndata.group: 0\n")

    def test_coxeter_group_over_the_cap_is_skipped_before_its_table(self):
        # the whole 720 x 720 table of A5 was built (38 s) only to be skipped
        out = _run_cli("verify", "--suite", "coxeter", "A5")
        assert out.returncode == 0
        assert "status: skipped" in out.stdout
        assert "data.order: 720" in out.stdout

    def test_named_group_over_the_cap_is_skipped_before_its_table(self):
        # checking a 1000 x 1000 table takes about a minute; the order alone decides the skip
        out = _run_cli("verify", "--suite", "coxeter", "cyclic:1000")
        assert out.returncode == 0
        assert "status: skipped" in out.stdout
        assert "data.order: 1000" in out.stdout

    def test_homotopy_over_the_cap_is_skipped_before_its_tables(self):
        # degree 3 ran for hours here while its h2 memo grew without bound;
        # the terms the check writes decide the skip of the degree-k entry
        out = _run_cli("verify", "--suite", "homotopy", MODULE_2E8, timeout=20)
        assert out.returncode == 0
        assert out.stdout.count("status: skipped") == 2
        assert "data.needed_cells: 299761664" in out.stdout  # 256^2 * (2 + 18 * 254)
        # 256^3 * (12 + 78 * 254) + 256^2 * 6
        assert "data.needed_cells: 332591923200" in out.stdout

    def test_named_group_over_the_table_limit_is_two(self):
        # refused by the order read from its name, before any permutation is built
        out = _run_cli("verify", "--suite", "coxeter", "dihedral:5000")
        assert out.returncode == 2
        assert out.stdout == ""
        assert f"dihedral:5000 names a group of more than {TABLE_LIMIT} elements" in out.stderr

    def test_core_group_over_the_table_limit_is_two(self):
        # refused by the order read from its name, well inside the timeout;
        # building the group's 10000 permutations first took seconds
        out = _run_cli("check", "core group=dihedral:5000", timeout=3)
        assert out.returncode == 2
        assert f"dihedral:5000 names a group of more than {TABLE_LIMIT} elements" in out.stderr

    @pytest.mark.parametrize(
        "name, argv",
        [(name, ["check", f"core group={name}"]) for name in ("dihedral:5000", "cyclic:5000", "A6")]
        + [(name, ["verify", "--suite", "coxeter", name]) for name in ("dihedral:5000", "A6", "A100000")]
        + [("A6", ["verify", "--suite", "coxeter", "coxeter type=A6"])],
    )
    def test_one_limit_message_for_every_path(self, capsys, name, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"{name} names a group of more than {TABLE_LIMIT} elements\n"), err

    def test_core_accepts_a_coxeter_label(self, capsys):
        code, out, _ = run(capsys, "check", "core group=A3")
        assert code == 0
        assert "data.order: 24" in out

    def test_coxeter_family_over_the_reflection_limit_is_two(self):
        # A100 has 5050 reflections; refused when the spec is parsed
        out = _run_cli("check", "coxeter type=A100", timeout=5)
        assert out.returncode == 2
        assert f"A100 names a reflection quandle of more than {TABLE_LIMIT} elements" in out.stderr

    def test_core_of_cyclic400_within_the_timeout(self):
        # the group's associativity check is blocked on arrays; the per-cell
        # triple loop over its 64M (a, b, c) made this take about 8 s
        out = _run_cli("check", "core group=cyclic:400", timeout=6)
        assert out.returncode == 0
        assert "result: pass" in out.stdout

    def test_check_on_file(self, capsys, tmp_path):
        p = tmp_path / "r5.quandle"
        p.write_text(dump_table(families.dihedral(5)))
        code, out, _ = run(capsys, "check", str(p))
        assert code == 0
        assert "data.order: 5" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = main(["check", "trivial", "n=1", "--out", str(target)])
        capsys.readouterr()
        assert code == 0
        assert "result: pass" in target.read_text()

    def test_a_path_with_whitespace_is_a_file(self, capsys, tmp_path):
        # the argument is tested as a file as given, not split at its space
        (tmp_path / "sp ace").mkdir()
        path = tmp_path / "sp ace" / "d3.quandle"
        path.write_text(dump_table(families.dihedral(3)))
        code, out, err = run(capsys, "check", str(path))
        assert (code, err) == (0, "")
        assert f"input: {path}\n" in out and "data.order: 3" in out
        code, out, _ = run(capsys, "census", "--dir", str(path.parent))
        assert code == 0 and "[d3.quandle]" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--out", "{}", "dihedral n=3"],
            ["covering", "--export-dir", "{}", "alexander orders=3 t=-1"],
        ],
    )
    def test_a_failed_write_is_two(self, capsys, tmp_path, argv):
        # a path under a regular file cannot be written: exit 2, no report
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        target = str(blocker / "x")
        code, out, err = run(capsys, *(a.format(target) for a in argv))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert os.listdir(tmp_path) == ["file"] and blocker.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "argv,code",
        [(["check", "dihedral n=3"], 0), (["check", os.path.join(GOLDEN, "broken-iii.quandle")], 1)],
    )
    def test_a_closed_stdout_keeps_the_report_exit_code(self, argv, code):
        # the reader closed the pipe before the report was written: no
        # BrokenPipeError traceback, and the exit code is the report's own
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "quandles.cli", *argv], stdout=write,
                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC), text=True, timeout=20,
            )
        finally:
            os.close(write)
        assert (out.returncode, out.stderr) == (code, "")

    def test_a_full_disk_on_stdout_is_two(self, capsys, monkeypatch, tmp_path):
        # the flush of the report fails with ENOSPC: exit 2 as for --out, no
        # traceback, and stdout points at devnull for the flush at exit
        class FullStdout:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                return len(text)

            def flush(self):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def fileno(self):
                return self.fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", FullStdout(fd))
            code = main(["check", "dihedral n=3"])
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write standard output: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


class TestCensus:
    def test_grid_census_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "census")
        code2, out2, _ = run(capsys, "census")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "checks: " in out1

    def test_every_entry_reports_the_chain_h2(self, capsys):
        code, out, _ = run(capsys, "census")
        assert code == 0
        assert out.count("data.h2: ") == out.count("\nstatus: pass\n") == 57
        # n = 63: its full d3 has 63^4 cells, past the default cap
        row = out.split("[symplectic:g1:q8]\n")[1].split("\n\n")[0]
        assert "data.h2: Z/2 + Z/2 + Z/2" in row

    def test_an_oracle_disagreement_fails_the_row(self, capsys, monkeypatch):
        monkeypatch.setattr(ClauwensGroup, "stabilizer_h2", lambda self: AbelianGroupInvariants(1, ()))
        code, out, _ = run(capsys, "census")
        assert code == 1
        row = out.split("[alexander:5,5:t-1]\n")[1].split("\n\n")[0]
        assert "status: fail" in row
        assert "data.detail: H2 oracles disagree: chain Z/5, stabilizer Z, cokernel Z/5" in row

    def test_directory_census(self, capsys, tmp_path):
        (tmp_path / "a.quandle").write_text(dump_table(families.dihedral(3)))
        (tmp_path / "b.quandle").write_text(dump_table(families.trivial(2)))
        code, out, _ = run(capsys, "census", "--dir", str(tmp_path))
        assert code == 0
        assert "[a.quandle]" in out and "[b.quandle]" in out

    def test_empty_directory_is_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "census", "--dir", str(tmp_path))
        assert code == 2
        assert "error:" in err

    def test_an_unreadable_file_is_two(self, capsys, tmp_path):
        # read by the recipe `parse_input` gives a table file
        (tmp_path / "a.quandle").write_text(dump_table(families.trivial(2)))
        (tmp_path / "b.quandle").mkdir()
        code, out, err = run(capsys, "census", "--dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {tmp_path / 'b.quandle'}: ")

    def test_a_bad_table_names_its_file(self, capsys, tmp_path):
        (tmp_path / "a.quandle").write_text("2\n0 1\n")
        code, out, err = run(capsys, "census", "--dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / 'a.quandle'}: expected 2 table rows, found 1\n"


@pytest.fixture
def builds(monkeypatch):
    """Count adjoint-model constructions and Alexander table builds."""
    counts = {"models": 0, "tables": 0}
    init = ClauwensGroup.__init__

    def counting_init(self, spec):
        counts["models"] += 1
        init(self, spec)

    original = families.alexander

    def counting_alexander(spec):
        counts["tables"] += 1
        return original(spec)

    monkeypatch.setattr(ClauwensGroup, "__init__", counting_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("quandles") and getattr(module, "alexander", None) is original:
            monkeypatch.setattr(module, "alexander", counting_alexander)
    return counts


class TestOneModelPerCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["adjoint"],
            ["verify", "--suite", "clauwens"],
            ["verify", "--suite", "eisermann"],
            ["verify", "--suite", "homotopy"],
            ["verify", "--suite", "covering"],
            ["covering"],
        ],
        ids=" ".join,
    )
    def test_one_model_and_one_table(self, capsys, builds, argv):
        code, _, _ = run(capsys, *argv, "alexander orders=3,3 t=-1")
        assert code == 0
        assert builds["models"] == 1
        assert builds["tables"] <= 1

    def test_homotopy_cap_is_read_before_the_model(self, capsys, builds):
        code, out, _ = run(
            capsys, "verify", "--suite", "homotopy", "--cap-cells", "1", "alexander orders=3 t=-1"
        )
        assert code == 0
        assert out.count("status: skipped") == 2
        assert builds == {"models": 0, "tables": 0}

    def test_homotopy_cap_is_read_per_degree(self, capsys, builds):
        # order 4, type 3: degree 2 writes 16 * 38 terms, degree 3 writes
        # 64 * 168 + 16 * 6
        code, out, _ = run(
            capsys, "verify", "--suite", "homotopy", "--cap-cells", "1000",
            "alexander orders=2,2 t=0,1;1,1",
        )
        assert code == 0
        assert "status: pass\ndata.pairs: 16" in out
        assert "status: skipped\ndata.cap: 1000\ndata.needed_cells: 10848" in out
        assert builds["models"] == 1

    def test_homotopy_cap_counts_terms(self, capsys, builds):
        # 117,649 triples of type 42 write 377M terms (30-43 s); 25:t7 writes
        # 3.85M and stays admitted
        code, out, _ = run(
            capsys, "verify", "--suite", "homotopy", "alexander orders=49 t=3",
        )
        assert code == 0
        assert "status: pass\ndata.pairs: 2401" in out
        assert "status: skipped\ndata.cap: 10000000\ndata.needed_cells: 377667696" in out
        assert builds["models"] == 1
        assert homotopy_terms(3, 25, 4) == 3847500 < DEFAULT_CELL_CAP

    def test_census_builds_one_model_per_connected_alexander_entry(self, capsys, builds):
        code, _, _ = run(capsys, "census")
        assert code == 0
        assert builds["models"] == 20


class TestCommandSurface:
    def test_main_builds_no_parser(self, capsys, monkeypatch):
        # the argparse tree is built once, when the module is imported
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(capsys, "check", "dihedral n=3")[0] == 0
        assert run(capsys, "homology", "--degree", "3", "trivial n=2")[0] == 0
        assert built == []

    def test_suite_choices_are_the_suites(self):
        verify = cli._PARSER._actions[-1].choices["verify"]
        suite = next(a for a in verify._actions if a.dest == "suite")
        assert suite.choices == list(cli.SUITES)

    def test_every_action_is_unchanged(self):
        # (option strings, dest, default, choices, nargs, required, help, type)
        # of every action of `quandles` and its subcommands, as written out
        # before the subcommands were declared by one table
        help_ = (("-h", "--help"), "help", argparse.SUPPRESS, None, 0, False,
                 "show this help message and exit", None)
        input_ = ((), "input", None, None, "+", True,
                  "family spec (e.g. alexander orders=3,3 t=-1), grid:<key>, or a table file",
                  None)
        cap_cells = (("--cap-cells",), "cap_cells", DEFAULT_CELL_CAP, None, None, False,
                     "cell-count cap", int)
        common = [
            (("--timings",), "timings", False, None, 0, False, "include per-check seconds", None),
            (("--out",), "out", None, None, None, False,
             "write the report to this file instead of stdout", None),
        ]
        commands = {
            "check": ("validate the axioms and profile the input", [input_]),
            "invariants": ("profile plus abelianization and module data", [input_]),
            "homology": ("rack/quandle homology of the input", [
                input_,
                (("--mode",), "mode", "quandle", ["rack", "quandle"], None, False, None, None),
                (("--degree",), "degree", 2, [2, 3], None, False, None, int),
                cap_cells,
            ]),
            "adjoint": ("adjoint-group model of a linear quandle", [input_]),
            "verify": ("run a verification suite", [
                (("--suite",), "suite", None,
                 ["clauwens", "homotopy", "eisermann", "covering", "coxeter"],
                 None, True, None, None),
                input_,
                cap_cells,
                (("--cap-group",), "cap_group", 30, None, None, False,
                 "bar-complex group cap", int),
            ]),
            "covering": ("universal covering of a linear quandle", [
                input_,
                cap_cells,
                (("--export-dir",), "export_dir", None, None, None, False,
                 "write base/total tables and the projection map here", None),
            ]),
            "census": ("survey the built-in grid or a directory", [
                (("--dir",), "dir", None, None, None, False,
                 "directory of .quandle files (default: built-in grid)", None),
                cap_cells,
            ]),
        }

        def fields(action):
            choices = action.choices
            return (tuple(action.option_strings), action.dest, action.default,
                    list(choices) if choices is not None else None, action.nargs,
                    action.required, action.help, action.type)

        parser = cli._PARSER
        assert [fields(a) for a in parser._actions] == [
            help_,
            (("--version",), "version", argparse.SUPPRESS, None, 0, False,
             "show program's version number and exit", None),
            ((), "command", None, list(commands), argparse.PARSER, True, None, None),
        ]
        sub = parser._actions[-1]
        assert [(a.dest, a.help) for a in sub._choices_actions] == [
            (name, help) for name, (help, _) in commands.items()
        ]
        for name, (_, actions) in commands.items():
            expected = [help_, *actions, *common]
            assert [fields(a) for a in sub.choices[name]._actions] == expected, name
