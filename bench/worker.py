"""One fresh benchmark process: set up one workload, then time or trace it.

Started by ``run.py``; not meant to be run by hand.  Modes:

- ``setup``: import the library, build the seeded inputs, report set-up time;
- ``measure``: set up, run every job once, then keep repeating the jobs
  whose last time still fits in ``--seconds``;
- ``trace``: install the span recorder first, set up, run one pass, and
  write the spans.

Set-up time runs from ``--spawned-at``, the parent's monotonic clock just
before it started this process, to the first timed job.  The result is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_job(job, times, recorder=None, label="") -> tuple[int, list[str]]:
    """Run one job, append its time to times[job.name], return (entries, mismatches)."""
    if recorder is not None:
        recorder.job = f"{label}{job.name}"
    start = time.perf_counter()
    try:
        observed = job.run()
        error = None
    except Exception as exc:  # a crashing job counts as failed; the run goes on
        observed, error = {}, f"{type(exc).__name__}: {exc}"
    times.setdefault(job.name, []).append(time.perf_counter() - start)
    failures = [
        f"{entry}: {error or f'got {observed.get(entry)!r}, want {want!r}'}"
        for entry, want in job.expected.items()
        if observed.get(entry) != want
    ]
    return len(job.expected), failures


def run_jobs(jobs, seconds, recorder=None) -> tuple[dict, int, list[str]]:
    """One pass over the jobs, then more rounds while time is left.

    After the first pass a job runs again only if its last time still fits
    in ``seconds``, so short jobs fill the end of the window and every job
    is sampled at different moments.  A traced run makes one pass.
    """
    times, attempted, failures = {}, 0, []
    start = time.perf_counter()
    for round_no in itertools.count():
        ran = False
        for job in jobs:
            if round_no and time.perf_counter() - start + times[job.name][-1] > seconds:
                continue
            n, bad = run_job(job, times, recorder, f"round{round_no}:")
            attempted += n
            failures += bad
            ran = True
        if recorder is not None or not ran:
            return times, attempted, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import numpy
    import quandles

    recorder = None
    if args.mode == "trace":
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    import workloads

    jobs = workloads.setup(args.workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    result = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "quandles": quandles.__version__,
    }
    if args.mode != "setup":
        times, attempted, failures = run_jobs(jobs, args.seconds, recorder)
        result.update(
            job_times=times,
            attempted=attempted,
            failures=failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    if recorder is not None:
        recorder.write(args.spans)
        result.update(layers=recorder.layer_metrics(), spans=len(recorder.spans))
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
