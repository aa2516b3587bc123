"""Peak memory of a fresh Python process, read from its own VmHWM.

A child's getrusage(RUSAGE_SELF).ru_maxrss starts from the resident size of
the process that started it, which exec carries over, and RUSAGE_CHILDREN
reports the largest child the parent ever waited for.  VmHWM in
/proc/self/status is the peak of the child's own memory map.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PEAK_KB = (
    "def peak_kb():\n"
    "    status = open('/proc/self/status').read().split()\n"
    "    return int(status[status.index('VmHWM:') + 1])\n"
)


def child_peaks_kb(code: str) -> list[int]:
    """Run `code` in a fresh Python with the package on its path, where
    `peak_kb()` returns the child's VmHWM so far in kB, and return the
    integers it prints."""
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_KB + code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300, check=True,
    )
    return [int(v) for v in out.stdout.split()]
