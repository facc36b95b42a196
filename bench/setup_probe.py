"""One fresh-process set-up of a workload: import, inputs, one warm-up op.

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds from this script's first statement to the end of the
warm-up op.  ``run.py`` starts it several times and reports the median as
``setup_s``; it passes the checkout's ``src`` on ``PYTHONPATH``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

if __name__ == "__main__":
    wl = workloads.make_workload(sys.argv[1], Path(__file__).resolve().parent.parent)
    wl.setup(int(sys.argv[2]))
    print(time.perf_counter() - T0)
