"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload homology --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see README.md for why each
was chosen): homology, adjoint, tables.  Every process this starts runs
serially, one at a time:

- ``--trace 0``: a set-up-only process, one process that sets up and runs
  the jobs repeatedly for about ``--seconds``, and another
  set-up-only process.  Prints the end-to-end metrics: ``wall_s``, the sum
  over jobs of each job's fastest repetition; ``setup_s``, the median
  set-up time of the three processes; and the measuring process's
  ``peak_rss_mb``.
- ``--trace 1``: the same untraced measuring process, then two traced
  processes that each set up and run one pass under the span recorder.
  Prints the per-layer metrics; count metrics must repeat exactly between
  the two traced processes, and ``bench.trace_overhead_s`` is traced minus
  untraced ``wall_s``.  Spans are written to ``.bench_run/``.

Every job's output is checked against ``expected.json``; a mismatch or
crash counts toward ``failed`` and makes the exit code 1.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def commit() -> str:
    """The checkout's commit from .git, without running git; 'unknown' outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.out_dir = os.path.join(ROOT, ".bench_run")
        self.workdir = os.path.join(self.out_dir, f"{workload}-s{seed}-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.children = 0

    def spawn(self, mode: str, seconds: float = 0.0, spans: str | None = None) -> dict:
        """Run one fresh worker process to completion and return its result."""
        self.children += 1
        out = os.path.join(self.workdir, f"result-{self.children}.json")
        argv = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
            "--seconds", str(seconds),
            "--workdir", self.workdir,
            "--out", out,
        ]
        if spans:
            argv += ["--spans", spans]
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        env = dict(os.environ, PYTHONHASHSEED="0")
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline") from None
        if code != 0:
            raise BenchError(f"{mode} worker exited with code {code}")
        with open(out) as fh:
            return json.load(fh)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def job_time_sum(job_times: dict) -> float:
    """Time to run every job once, each job taken at its fastest repetition.

    On a shared host, speed can drop by about 1.5 times for seconds to
    minutes at a time, whatever runs; a job's fastest repetition is the one
    least disturbed by that (see README.md, Noise).
    """
    return sum(min(times) for times in job_times.values())


def untraced(runner: Runner, seconds: float):
    # Set-up probes run before and after the measuring process, so that the
    # samples fall at different times and not all in one slow stretch.
    before = runner.spawn("setup")
    main = runner.spawn("measure", seconds)
    after = runner.spawn("setup")
    setups = [before["setup_s"], main["setup_s"], after["setup_s"]]
    metrics = {
        "wall_s": job_time_sum(main["job_times"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    samples = {"setup_s": setups, "jobs": main["job_times"]}
    return main, metrics, samples, []


def traced(runner: Runner, spec: dict, seconds: float):
    base = runner.spawn("measure", seconds)
    runs = []
    for i in range(2):
        spans = os.path.join(runner.out_dir, f"spans-{runner.workload}-s{runner.seed}-{i}.json")
        runs.append(runner.spawn("trace", spans=spans))
    first, second = (r["layers"] for r in runs)
    problems = [
        f"count {name} differs between traced runs: {first[name]} vs {second[name]}"
        for name, unit in spec.items()
        if unit in ("count", "ratio") and first[name] != second[name]
    ]
    metrics = {}
    for name, unit in spec.items():
        if name == "bench.trace_overhead_s":
            both = {}
            for r in runs:
                for job, times in r["job_times"].items():
                    both.setdefault(job, []).extend(times)
            metrics[name] = job_time_sum(both) - job_time_sum(base["job_times"])
        elif unit in ("count", "ratio"):
            metrics[name] = first[name]
        else:
            metrics[name] = statistics.median([first[name], second[name]])
    result = dict(base)
    result["attempted"] = base["attempted"] + sum(r["attempted"] for r in runs)
    result["failures"] = base["failures"] + [f for r in runs for f in r["failures"]]
    samples = {"spans": [r["spans"] for r in runs]}
    return result, metrics, samples, problems


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "quandles", "__init__.py")):
        print("error: src/quandles not found; run from the root of a checkout", file=sys.stderr)
        return 2
    section = bench["per_layer"] if args.trace else bench["end_to_end"]
    spec = {m["name"]: m["unit"] for m in section}

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            main_result, metrics, samples, problems = traced(runner, spec, args.seconds)
        else:
            main_result, metrics, samples, problems = untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        runner.close()

    attempted = main_result["attempted"]
    failures = main_result["failures"]
    for line in failures[:20] + problems:
        print(f"check failed: {line}", file=sys.stderr)
    correct = not failures and not problems
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": main_result["python"],
        "numpy": main_result["numpy"],
        "quandles": main_result["quandles"],
        "commit": commit(),
        "units": spec,
        "samples": samples,
        "jobs_failed_frac": {
            "value": len(failures) / attempted, "unit": "ratio",
            "base": f"{len(failures)} of {attempted} job entries",
        },
    }
    print("env: " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {spec[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": spec[name]} for name in spec},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
