"""A fixed pure-Python yardstick for how fast the host runs right now.

On a shared 2-vCPU x86_64 virtual machine the same pass ran anywhere
from 2.2 s to 4.7 s within an hour, and process CPU time swelled with
wall time, so the slowdown was in instruction throughput, not in
waiting.  Averages within a 30-second run cannot remove a swing
that lasts minutes.  Each run therefore also times this loop a few
times, and the end-to-end timings are scaled by
``REFERENCE_S / trimmed mean(yardstick)``: they read as seconds on the
reference host at its quiet speed.  Each sample runs in a fresh
process (:func:`sample`), which imports only the standard library and
this file: the simulator's code, and the heap it leaves alive in the
benchmark process, cannot move the yardstick.  The run's result file
records the raw timings next to the scaled ones.

Usage: ``python3 perfbench/yardstick.py`` prints the seconds one
:func:`yardstick` took.
"""

from __future__ import annotations

import heapq
import subprocess
import sys
import time

#: Events :func:`yardstick` processes: about 0.3 s on a quiet host.  On
#: a contended host, samples a third as long scattered too widely around
#: the slowdown the passes saw.
EVENTS = 450_000

#: Seconds a :func:`sample` takes on the reference host while it is quiet
#: (2 vCPUs, CPython 3.11.7, Linux 6.18 x86_64): 0.094 s measured per
#: 150,000 events, and the loop's time is linear in its events.
REFERENCE_S = 0.282


class _Job:
    __slots__ = ("key", "acc")

    def __init__(self, key: int):
        self.key = key
        self.acc = 0.0


def _job(job: _Job):
    for step in range(6):
        job.acc += (job.key * 0.5 + step) ** 0.5
        yield 0.001 * ((job.key * 7 + step) % 13 + 1)


def yardstick() -> float:
    """Run a fixed event loop (generators, a heap, dicts, floats); seconds taken."""
    start = time.perf_counter()
    heap: list = []
    running = {}
    seq = 0
    for key in range(200):
        running[key] = _job(_Job(key))
        heapq.heappush(heap, (0.0, seq, key))
        seq += 1
    for done in range(EVENTS):
        now, _seq, key = heapq.heappop(heap)
        try:
            delay = next(running[key])
        except StopIteration:
            running[key] = _job(_Job(key + 200 * (done % 50)))
            delay = 0.0005
        heapq.heappush(heap, (now + delay, seq, key))
        seq += 1
    return time.perf_counter() - start


def sample() -> float:
    """Seconds :func:`yardstick` took in a fresh process."""
    done = subprocess.run(
        [sys.executable, __file__],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    print(yardstick())
