"""A machine-speed probe for timing on a shared, noisy machine.

On a machine shared with other tenants the same code runs up to a fifth
slower or faster from one stretch of seconds to the next.  The benchmark
therefore runs a fixed probe kernel (pure-Python integer and dict work
plus small NumPy sorts, the mix the program itself spends its time in)
before and after every timed operation, and reports each time in
*reference seconds*: the measured time multiplied by
``REFERENCE_S / probe time``.  On a machine that runs the probe in
``REFERENCE_S`` the two are equal; when the machine slows down, probe and
operation slow down together and the ratio stays put.  Over a minute of
fuzz passes this halved the coefficient of variation of the rate (from
9-13% to 4-6%).  The raw figures go to standard error.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The probe's median time on the machine the bounds were set on (two
#: vCPUs, Python 3.11, NumPy 2.4).  Only the unit of the reported
#: times depends on it.
REFERENCE_S = 0.0025

_KEYS = np.random.default_rng(0).integers(0, 1000, 4096)


def _kernel() -> int:
    total = 0
    table = {}
    for i in range(6000):
        total += i * i % 7
        table[i & 1023] = total
    for _ in range(4):
        np.unique(_KEYS)
        np.argsort(_KEYS, kind="stable")
    return total


def sample(repeats: int = 3) -> float:
    """The median time of ``repeats`` probe runs, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Reference seconds per measured second between two samples."""
    return REFERENCE_S / ((before + after) / 2)
