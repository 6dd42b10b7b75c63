"""Wall time calibrated against a fixed reference loop.

On the shared 2-vCPU machine the baseline was recorded on, the same Python
code runs up to ~1.6x slower at times, in stretches from under a second to
minutes: five back-to-back runs of one fixed instance set gave median
instance times from 0.088 s to 0.131 s.  So a short reference loop is timed
after every timed call, and the call's wall time is scaled by ``REF_S`` over
the mean of the loop times just before and after it.  The reported seconds
are seconds on a machine that runs the loop in ``REF_S``.  The loop is this
file's own code and does not change with the program, so a change to the
program moves the scaled time as much as the raw one.  The correction is
not exact: program time grew as about the 0.8-0.9th power of the loop time,
so scaled times read a few percent low while the machine is slow.
"""

from __future__ import annotations

import math
import time
from typing import Callable

REF_REPS = 2000
REF_S = 0.003  # the loop's typical time on the machine the baseline was recorded on


def reference_loop(reps: int = REF_REPS) -> float:
    """Float math, tuple building and dict stores, like the planner's hot path."""
    acc = 0.0
    pts = []
    seen = {}
    for i in range(reps):
        x = 100.0 + i * 0.37
        y = 50.0 - i * 0.11
        z = 20.0 + (i % 50)
        h = math.hypot(x, y)
        r = math.sqrt(x * x + y * y + z * z)
        loss = 28.0 + 22.0 * math.log10(r) + 6.0
        if h > 18.0:
            p = 18.0 / h + math.exp(-h / 63.0 * (1.0 - 18.0 / h))
            loss = p * loss + (1.0 - p) * (-17.5 + (46.0 - 7.0 * math.log10(z)) * math.log10(r))
        acc += math.log2(1.0 + 10.0 ** ((119.0 - loss) / 10.0))
        pts.append((x, y, z))
        seen[i & 255] = acc
    return acc + len(pts) + len(seen)


class Clock:
    """Times calls in reference-scaled seconds; keeps raw totals alongside."""

    def __init__(self):
        self._ref = self._time_reference()
        self.raw_s = 0.0
        self.scaled_s = 0.0

    @staticmethod
    def _time_reference() -> float:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0

    def time(self, fn: Callable):
        """Call ``fn``; returns (scaled seconds, raw seconds, its result)."""
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        ref = self._time_reference()
        scaled = raw * REF_S / (0.5 * (self._ref + ref))
        self._ref = ref
        self.raw_s += raw
        self.scaled_s += scaled
        return scaled, raw, result

    def scale(self) -> float:
        """Mean factor from raw to scaled seconds over the calls timed so far."""
        return self.scaled_s / self.raw_s if self.raw_s else 1.0
