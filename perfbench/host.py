"""How fast the host runs Python right now, from an interleaved calibration loop.

On a shared machine the speed of one core drifts by 20 % and more over
minutes, with the program unchanged.  A fixed interpreter-bound loop timed
between tuples follows that drift, so times measured in the same run can be
scaled to a reference speed.  The loop runs no monocurve code, so a change
to the program does not change the work the loop does.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: the reference speed all times are scaled to: seconds the calibration loop
#: takes at that speed
REF_SECONDS = 0.005
#: seconds between two samples while a workload runs
INTERVAL = 0.25
#: samples averaged around one call, about a second of wall time
NEAR = 4
ITERATIONS = 20_000


def calibration_seconds() -> float:
    """Time one run of the fixed calibration loop.

    Tuple keys in a dict of a few thousand entries, like the polynomial
    term tables the program works on, so the loop feels the same cache
    pressure; the garbage collector is paused so the program's heap size
    cannot enter the timing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        table: dict = {}
        for i in range(ITERATIONS):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Calibration samples taken during one stretch of measurement."""

    def __init__(self):
        self.samples: list = []
        self.times: list = []
        self._due = 0.0

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.samples.append(calibration_seconds())
            self.times.append(time.perf_counter())

    def tick(self) -> None:
        """Take a sample if INTERVAL has passed since the last one."""
        if time.perf_counter() >= self._due:
            self.sample()
            self._due = time.perf_counter() + INTERVAL

    @property
    def factor(self) -> float:
        """Reference time per measured time over the whole stretch."""
        return REF_SECONDS / statistics.fmean(self.samples)

    def factor_at(self, when: float) -> float:
        """Reference time per measured time from the NEAR samples closest to ``when``."""
        hi = min(len(self.samples), bisect.bisect_left(self.times, when) + NEAR // 2)
        lo = max(0, hi - NEAR)
        return REF_SECONDS / statistics.fmean(self.samples[lo:hi])
