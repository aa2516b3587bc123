"""The benchmark workloads: inputs, jobs and expected outputs.

Each workload's ``setup`` builds its inputs from the seed (writing table
files where the job reads files) and returns the jobs.  A job is one call
into a public entry point the CLI uses, made in process; it returns what
it observed per entry, and ``expected.json`` holds what every entry must
be.  Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import quandles
from quandles import cli, families
from quandles.fields import FiniteField

from inputs import conjugate, relabel, rng_for, table_text

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    expected: dict


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        raw = json.load(fh)
    return {
        workload: {entry: rec["value"] for entry, rec in entries.items()}
        for workload, entries in raw.items()
    }


def run_cli(argv) -> tuple[int, str]:
    """Run ``quandles <argv>`` in process; return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def report_blocks(text: str) -> dict[str, str]:
    """Split a rendered report into its header and one block per check id."""
    blocks = text.rstrip("\n").split("\n\n")
    out = {"header": blocks[0]}
    for block in blocks[1:]:
        out[block.split("\n", 1)[0].strip("[]")] = block
    return out


def block_fields(block: str) -> dict[str, str]:
    """The status and data values of one check block (the claim is left out)."""
    fields = {}
    for line in block.split("\n")[1:]:
        key, _, value = line.partition(": ")
        if key != "claim":
            fields[key.removeprefix("data.")] = value
    return fields


def _spec(key: str, rng):
    """The catalogue module spec, with T conjugated when the module is (Z/p)^k."""
    spec = quandles.grid.grid_by_key()[f"alexander:{key}"].alexander_spec
    orders = spec.torsion_orders
    if len(orders) > 1 and len(set(orders)) == 1:
        spec = quandles.AlexanderModuleSpec(orders, conjugate(spec.t_matrix, orders[0], rng))
    return spec


# ---------------------------------------------------------------------------
# homology: sparse SNF and complex assembly on relabeled catalogue tables

# (job, catalogue key, extra CLI arguments, relabel?).  alexander:9:t2 keeps
# its catalogue labeling: relabeled, its d4 Smith form took 52 s and over
# 100 s on two seeds instead of 2 s, beyond a run's time limit.
HOMOLOGY_JOBS = [
    ("h2:spherical:n2:q5", "spherical:n2:q5", [], True),
    ("h2:symplectic:g1:q5", "symplectic:g1:q5", [], True),
    ("rack-h2:symplectic:g1:q4", "symplectic:g1:q4", ["--mode", "rack"], True),
    ("h3:alexander:9:t2", "alexander:9:t2", ["--degree", "3"], False),
    ("h3:dihedral:8", "dihedral:8", ["--degree", "3"], True),
]


def _homology_job(name, path, extra, expected):
    def run():
        code, text = run_cli(["homology", path, *extra])
        fields = block_fields(report_blocks(text)["homology"])
        return {name: {"exit": code, "status": fields["status"], "group": fields.get("group")}}

    return Job(name, run, {name: expected[name]})


def _abelianization_job(name, path, expected):
    def run():
        code, text = run_cli(["invariants", path])
        return {name: {"exit": code, **block_fields(report_blocks(text)["abelianization"])}}

    return Job(name, run, {name: expected[name]})


def setup_homology(seed: int, workdir: str, expected: dict) -> list[Job]:
    rng = rng_for("homology", seed)
    catalogue = quandles.grid.grid_by_key()
    jobs = []
    for name, key, extra, shuffle in HOMOLOGY_JOBS:
        path = os.path.join(workdir, name.replace(":", "_") + ".quandle")
        table = catalogue[key].build().table
        if shuffle:
            table = relabel(table, rng)
        with open(path, "w") as fh:
            fh.write(table_text(table, f"{key}, seed {seed}"))
        jobs.append(_homology_job(name, path, extra, expected))
        if name == "h2:spherical:n2:q5":
            ab = "abelianization:spherical:n2:q5"
            jobs.append(_abelianization_job(ab, path, expected))
    return jobs


# ---------------------------------------------------------------------------
# adjoint: the adjoint-group model, homotopy identities and coverings

HOMOTOPY_KEYS = ["2,2,2:frob", "13:t-1", "3,3:rot", "7:t3"]
COVERING_KEYS = ["5,5:t-1", "3,3:t-1", "3,3:rot"]
MODEL_KEYS = ["5,5:t-1", "3,3:rot", "25:t7"]


def _homotopy(verify, spec):
    r = verify(spec)
    return {"status": r.status, "tuples": r.tuples_checked, "type": r.type}


def _covering(spec, base_point):
    inst = quandles.universal_covering_alexander(spec, base_point=base_point)
    return {
        "total_order": inst.total.order,
        "fiber": inst.fiber_size,
        "connected": inst.total.is_connected(),
        "type": inst.total.type,
        "is_covering": quandles.is_covering(inst.projection, inst.total, inst.base),
    }


def _kernel(spec):
    t, coker = quandles.action_kernel(spec)
    return {"type": t, "coker": str(coker)}


def setup_adjoint(seed: int, workdir: str, expected: dict) -> list[Job]:
    rng = rng_for("adjoint", seed)
    calls = []
    for key in HOMOTOPY_KEYS:
        spec = _spec(key, rng)
        calls.append((f"homotopy2:{key}", _homotopy, (quandles.verify_homotopy_2, spec)))
        calls.append((f"homotopy3:{key}", _homotopy, (quandles.verify_homotopy_3, spec)))
    for key in COVERING_KEYS:
        spec = _spec(key, rng)
        calls.append((f"covering:{key}", _covering, (spec, rng.randrange(spec.size))))
    for key in MODEL_KEYS:
        spec = _spec(key, rng)
        calls.append(
            (f"model:{key}", lambda s: str(quandles.clauwens_group(s).coker_invariants), (spec,))
        )
        calls.append((f"kernel:{key}", _kernel, (spec,)))
        calls.append((f"central:{key}", quandles.adjoint.central_power_check, (spec,)))
        calls.append((f"eisermann:{key}", lambda s: str(quandles.eisermann_h2(s)), (spec,)))
    return [
        Job(name, lambda f=f, a=a, name=name: {name: f(*a)}, {name: expected[name]})
        for name, f, a in calls
    ]


# ---------------------------------------------------------------------------
# tables: validation and the Inn chain on large relabeled table files


# Companion matrix of x^8 + x^4 + x^3 + x^2 + 1, primitive over F_2: T has order 255.
_LOW = [1, 0, 1, 1, 1, 0, 0, 0]
COMPANION = [[int(i == j + 1) for j in range(7)] + [_LOW[i]] for i in range(8)]

TABLES = [
    ("symplectic-g2-q3", lambda rng: families.symplectic(2, FiniteField.of(3))),
    (
        "alexander-2e8-primitive",
        lambda rng: families.alexander(
            quandles.AlexanderModuleSpec((2,) * 8, conjugate(COMPANION, 2, rng))
        ),
    ),
    ("spherical-n3-q5", lambda rng: families.spherical(3, FiniteField.of(5))),
    ("dihedral-n200", lambda rng: families.dihedral(200)),
]


def _census_dir_job(name, directory, expected):
    def run():
        blocks = report_blocks(run_cli(["census", "--dir", directory])[1])
        return {entry: block_fields(block) for entry, block in blocks.items() if entry != "header"}

    return Job(name, run, {name: expected[name]})


def setup_tables(seed: int, workdir: str, expected: dict) -> list[Job]:
    rng = rng_for("tables", seed)
    jobs = []
    for name, build in TABLES:
        # one directory per table, so that each table is timed on its own
        directory = os.path.join(workdir, name)
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, name + ".quandle"), "w") as fh:
            fh.write(table_text(relabel(build(rng).table, rng), f"{name}, seed {seed}"))
        jobs.append(_census_dir_job(name + ".quandle", directory, expected))
    return jobs


WORKLOADS = {
    "homology": setup_homology,
    "adjoint": setup_adjoint,
    "tables": setup_tables,
}


def setup(workload: str, seed: int, workdir: str) -> list[Job]:
    expected = load_expected()
    return WORKLOADS[workload](seed, workdir, expected.get(workload, {}))
