"""The structured report document: schema, determinism, exit codes."""

import time

import pytest

from quandles.adjoint import IdentityFailed
from quandles.cli import CLIError
from quandles.core import AxiomViolation
from quandles.homology import SizeCap
from quandles.report import CheckEntry, ReportDocument, format_value


def make_doc():
    doc = ReportDocument("unit test", "0.0.0")
    doc.add("alpha", "first claim", "pass", {"n": 3, "flag": True})
    doc.add("beta", "second claim", "skipped", {"cap": 10}, seconds=1.5)
    return doc


def test_render_is_deterministic():
    assert make_doc().render() == make_doc().render()


def test_render_schema():
    text = make_doc().render()
    lines = text.splitlines()
    assert lines[0] == "report-version: 1"
    assert lines[1] == "tool: quandles 0.0.0"
    assert lines[2] == "input: unit test"
    assert lines[3] == "checks: 2"
    assert lines[4] == "result: pass"
    assert "[alpha]" in lines
    assert "data.flag: true" in lines
    assert "data.n: 3" in lines


def test_data_keys_sorted():
    doc = ReportDocument("x", "0")
    doc.add("c", "claim", "pass", {"zeta": 1, "alpha": 2})
    body = doc.render()
    assert body.index("data.alpha") < body.index("data.zeta")


def test_timings_hidden_by_default():
    doc = make_doc()
    assert "seconds" not in doc.render()
    assert "seconds: 1.500" in doc.render(timings=True)


def test_exit_codes():
    doc = make_doc()
    assert doc.exit_code() == 0  # skipped and reported do not fail
    doc.add("gamma", "third claim", "fail", {})
    assert doc.exit_code() == 1
    assert "result: fail" in doc.render()


def test_duplicate_ids_rejected():
    doc = make_doc()
    with pytest.raises(ValueError):
        doc.add("alpha", "again", "pass")


def test_unknown_status_rejected():
    with pytest.raises(ValueError):
        CheckEntry("x", "claim", "maybe")


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value([1, "a"]) == "[1, a]"
    assert format_value(2.5) == "2.5"
    assert format_value("plain") == "plain"


@pytest.mark.parametrize(
    "exc, status, data",
    [
        (SizeCap(4096, 10), "skipped", {"needed_cells": 4096, "cap": 10}),
        (AxiomViolation("iii", (2, 0, 2), "msg"), "fail", {"axiom": "iii", "witness": (2, 0, 2)}),
        (
            IdentityFailed("lemma", (1, 2), 3),
            "fail",
            {"at": "(1, 2)", "detail": "lemma fails at (1, 2): nonzero difference 3"},
        ),
        (AssertionError("broken"), "fail", {"detail": "broken"}),
    ],
)
def test_check_maps_verdict_exceptions(exc, status, data):
    doc = ReportDocument("x", "0")
    with doc.check("c", "claim") as e:
        e.status = "pass"
        raise exc
    (entry,) = doc.entries
    assert (entry.check_id, entry.claim, entry.status, entry.data) == ("c", "claim", status, data)
    assert entry.seconds is not None


def test_check_merges_payload_into_recorded_data():
    doc = ReportDocument("x", "0")
    with doc.check("c", "claim") as e:
        e.status, e.data = "pass", {"order": 3}
        raise SizeCap(81, 10)
    assert doc.entries[0].status == "skipped"
    assert doc.entries[0].data == {"order": 3, "needed_cells": 81, "cap": 10}


def test_check_times_its_body():
    doc = ReportDocument("x", "0")
    with doc.check("c", "claim") as e:
        e.status, e.data = "pass", {"n": 1}
        time.sleep(0.02)
    entry = doc.entries[0]
    assert (entry.status, entry.data) == ("pass", {"n": 1})
    assert entry.seconds >= 0.02
    assert "seconds: " in doc.render(timings=True)
    assert "seconds" not in doc.render()


def test_check_without_status_is_reported():
    doc = ReportDocument("x", "0")
    with doc.check("c", "claim") as e:
        e.data = {"group": "Z"}
    assert doc.entries[0].status == "reported"


@pytest.mark.parametrize("exc", [KeyError("k"), CLIError("bad input")])
def test_check_propagates_other_exceptions(exc):
    doc = ReportDocument("x", "0")
    with pytest.raises(type(exc)):
        with doc.check("c", "claim"):
            raise exc
    assert doc.entries == []


def test_check_rejects_duplicate_id():
    doc = make_doc()
    with pytest.raises(ValueError):
        with doc.check("alpha", "again") as e:
            e.status = "pass"
    assert [e.check_id for e in doc.entries] == ["alpha", "beta"]
