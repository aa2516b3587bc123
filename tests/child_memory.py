"""Peak memory of a fresh Python process, read from its own VmHWM.

A child's getrusage(RUSAGE_SELF).ru_maxrss starts from the resident size of
the process that started it, which exec carries over, and RUSAGE_CHILDREN
reports the largest child the parent ever waited for.  VmHWM in
/proc/self/status is the peak of the child's own memory map.

Run as a script, it runs one `quandles` command in its own process and
bounds that process's peak:

    python tests/child_memory.py LIMIT_MB [--expect LINE] COMMAND ARGS...

It prints the command's report, then `VmHWM <peak> MB` on stderr, and
exits nonzero when the command does, when the peak passes LIMIT_MB, or
when LINE is given and is not a line of the report.
"""

import contextlib
import inspect
import io
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def peak_kb() -> int:
    """This process's VmHWM so far, in kB."""
    status = open("/proc/self/status").read().split()
    return int(status[status.index("VmHWM:") + 1])


def child_peaks_kb(code: str) -> list[int]:
    """Run `code` in a fresh Python with the package on its path, where
    `peak_kb()` returns the child's VmHWM so far in kB, and return the
    integers it prints."""
    out = subprocess.run(
        [sys.executable, "-c", inspect.getsource(peak_kb) + code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300, check=True,
    )
    return [int(v) for v in out.stdout.split()]


def main(argv: list[str]) -> int:
    from quandles.cli import main as quandles

    limit_mb, *argv = argv
    expected = None
    if argv[0] == "--expect":
        _, expected, *argv = argv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = quandles(argv)
    report = out.getvalue()
    sys.stdout.write(report)
    peak = peak_kb() // 1024
    print(f"VmHWM {peak} MB", file=sys.stderr)
    missing = expected is not None and expected not in report.splitlines()
    return int(bool(code or peak > int(limit_mb) or missing))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
