"""Machine-speed calibration interleaved with a workload's ops.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over seconds to minutes.  A fixed chunk of the kinds of
work the program does (a bytecode loop, a small HiGHS LP through scipy,
and a loop of small numpy operations) is timed between ops; it calls
nothing in ``leakgames``, so its time tracks only the machine.  Of the
kinds of work tried, dict building and JSON tracked the op times worst
and are left out.  Dividing a set's times by the set's slowness (chunk
time over ``REFERENCE_S``) gives them at the reference speed.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np
from scipy.optimize import linprog

#: Before an op, a chunk runs when this long has passed since the last one.
EVERY_S = 0.25
#: Median time of one chunk between ops on the host where the baseline was
#: measured (2 vCPUs of an Intel Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
REFERENCE_S = 0.0075

_RNG = np.random.default_rng(0)
#: A small LP of the size of a hidden-choice DP round, and channel-like arrays.
_LP_A, _LP_C = _RNG.random((40, 12)), -_RNG.random(12)
_STACK, _WEIGHTS = _RNG.random((8, 16, 16)), _RNG.random(8)


def _work() -> None:
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    linprog(_LP_C, A_ub=_LP_A, b_ub=np.ones(40), bounds=[(0, 1)] * 12, method="highs")
    x = _WEIGHTS / _WEIGHTS.sum()
    for _ in range(100):
        y = np.einsum("d,dxy->xy", x, _STACK).max(axis=0).sum()
        x = np.clip(x - 0.01 * y, 0.0, None) + 1e-3
        x /= x.sum()


def chunk() -> float:
    """Time one fixed chunk of mixed work.

    The work runs once untimed first, so the caches the last op left cold
    do not count, and the garbage collector is off while it runs, so the
    size of the program's heap does not count either.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Runs a chunk at most every ``EVERY_S`` and keeps the chunk times."""

    def __init__(self):
        self.times: list[float] = []
        self._last = -float("inf")

    def tick(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.times.append(chunk())
            self._last = time.perf_counter()

    def slowness(self) -> float:
        return slowness(self.times)


def slowness(times: list[float]) -> float:
    """Median chunk time over the reference; above 1 on a slow machine."""
    return statistics.median(times) / REFERENCE_S
