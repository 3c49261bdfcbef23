"""Speed-normalized timing.

A shared virtual host can change speed by tens of percent over seconds,
for every program alike.  A fixed piece of interpreter-bound reference work
measures that speed; a timed call is scaled by ``REFERENCE_S`` over the
speed seen while it ran, so a metric reads as seconds on a host that does
the reference work in exactly ``REFERENCE_S``.  The speed is measured just
before and just after the call and, for long calls, every ``INTERVAL_S``
during it from a SIGALRM handler; the handler's own time is taken out of
the call's raw time.
"""

from __future__ import annotations

import math
import signal
import time

REFERENCE_S = 0.00045
INTERVAL_S = 0.05

perf = time.perf_counter


def reference_work() -> int:
    """Fixed interpreter-bound work: integer arithmetic and dict stores."""
    total = 0
    table: dict[int, tuple[int, int]] = {}
    for i in range(4000):
        total += i * i
        table[i & 127] = (total, i)
    return total


def machine_speed() -> float:
    """Seconds for one reference_work call, the best of three tries."""
    best = math.inf
    for _ in range(3):
        t0 = perf()
        reference_work()
        best = min(best, perf() - t0)
    return best


class Clock:
    """Times calls in raw and speed-normalized seconds."""

    def __init__(self) -> None:
        self.speeds: list[float] = []  # every speed reading, for the record
        self._during: list[float] = []
        self._handler_s = 0.0
        self.last = (0.0, 0.0)

    def _sample(self, signum, frame) -> None:
        t0 = perf()
        reference_work()
        dt = perf() - t0
        self._during.append(dt)
        self._handler_s += dt

    def measure(self, fn, *args):
        """Return fn(*args); ``last`` holds (normalized, raw) seconds of the
        call, also when it raised."""
        self._during = []
        self._handler_s = 0.0
        before = machine_speed()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf()
        try:
            return fn(*args)
        finally:
            t1 = perf()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            raw = t1 - t0 - self._handler_s
            after = machine_speed()
            readings = [before, *self._during, after]
            self.speeds += readings
            self.last = (raw * REFERENCE_S * sum(1 / s for s in readings) / len(readings), raw)
