"""Machine-speed calibration of timed calls.

On a shared host the same single-threaded code runs at different speeds
from one second to the next: other tenants load the sibling hardware
threads and the shared caches, and pure-Python loops can slow by a third
for seconds to minutes.  Wall times of runs made minutes apart then differ
by more than any change worth detecting.

The benchmark therefore brackets every timed call and build with three
runs of ``probe()`` on each side, a fixed piece of interpreter and
small-numpy work of the same kind as the program's, and reports the
interval in probe units:

    calibrated seconds = wall seconds * PROBE_S / mean probe seconds

A machine-wide slowdown stretches the call and its probes alike and
cancels; a change in the program moves the call alone.  A subprocess
(the cold start) spends its time in process start-up, page faults and
imports, which the probe tracks poorly, so it is bracketed instead by a
run of ``python -c pass`` on each side and scaled by ``FLOOR_S``.

``PROBE_S`` and ``FLOOR_S`` are fixed constants, so calibrated figures
read as times on a machine where the probe takes exactly 1 ms and an
empty interpreter start 50 ms.  Raw wall times stay in the report line.

``pin_to_one_cpu`` keeps the benchmark and its subprocesses on one CPU, so
a call and its probe run on the same core.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Calibrated length of one probe, in seconds.
PROBE_S = 1e-3
#: Calibrated length of one ``python -c pass`` subprocess, in seconds.
FLOOR_S = 50e-3
#: Probes run on each side of a timed interval.
PROBES_PER_SIDE = 3

_STEP = np.full(50, 1.0000001)


def _work() -> float:
    table: dict[int, float] = {}
    total = 0.0
    for i in range(4000):
        table[i & 255] = i * 0.5
        total += table[i & 255] * 1.0001
    a = np.arange(50.0)
    for _ in range(150):
        a = a * _STEP + 1e-9
        total += float(a.sum())
    return total


def probe() -> float:
    """Wall seconds of one run of the fixed probe work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def probes(n: int = PROBES_PER_SIDE) -> float:
    """Mean wall seconds of ``n`` probes run back to back."""
    return sum(probe() for _ in range(n)) / n


def calibrated(elapsed: float, reference_s: float, nominal_s: float = PROBE_S) -> float:
    """``elapsed`` rescaled to a machine where the reference takes ``nominal_s``."""
    return elapsed * nominal_s / reference_s


def pin_to_one_cpu() -> int | None:
    """Restrict this process (and what it starts) to one allowed CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
