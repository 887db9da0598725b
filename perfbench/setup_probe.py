"""Measure the benchmark's set-up time in a fresh process.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints
the seconds from this script's first statement until the workload's
cells are imported, built and validated: the same span ``run.py``
measures for itself before its first cell runs.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if __name__ == "__main__":
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    os.environ["REPRO_KERNEL"] = "py"
    from perfbench.workloads import WORKLOADS, validate

    validate(WORKLOADS[sys.argv[1]](int(sys.argv[2])))
    print(time.perf_counter() - _T0)
