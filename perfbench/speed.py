"""Machine-speed normalisation of measured times.

On a shared virtual machine the speed of a vCPU drifts by up to about 40%
over periods of seconds, with no steal time and no hardware counters to
read.  So every timed phase also runs a fixed probe (integer list
arithmetic, gcd and dict work, like the library's inner loops) at least
every ``INTERVAL_S``, and each measured time is rescaled by the probe's
median duration around it:

    reported = measured * REFERENCE_PROBE_S / median(probe durations nearby)

A reported time is the time the work would take at the speed where one
probe takes ``REFERENCE_PROBE_S``.  The probe does not touch the library
and runs with the cyclic garbage collector off, so neither the library's
live objects nor its collector settings change a probe's duration: a
change to the library moves only ``measured``.  Result files keep the
measured times beside the reported ones.
"""

import bisect
import gc
import statistics
from math import gcd
from time import perf_counter

REFERENCE_PROBE_S = 0.0006
INTERVAL_S = 0.05
WINDOW_S = 0.2


def _probe_work():
    table = {}
    row = list(range(1, 33))
    for _ in range(60):
        row = [a * 3 - b for a, b in zip(row, row[1:] + row[:1])]
        g = 0
        for v in row:
            g = gcd(g, v)
        table[tuple(row[:4])] = g
    return len(table)


def _timed_probe():
    """Start and end of one probe, run with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _probe_work()
        end = perf_counter()
    finally:
        if enabled:
            gc.enable()
    return start, end


def probe():
    """Duration of one probe, in seconds."""
    start, end = _timed_probe()
    return end - start


def factor_now(samples=3):
    """Scale factor for a short interval that starts now."""
    return REFERENCE_PROBE_S / statistics.median(probe() for _ in range(samples))


class SpeedMeter:
    """Probes taken between ops, and the rescaling of the ops' times."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._last = float("-inf")

    def sample(self, force=False):
        """Run a probe if ``INTERVAL_S`` has passed since the last one."""
        if force or perf_counter() - self._last >= INTERVAL_S:
            start, self._last = _timed_probe()
            self.times.append(start)
            self.durations.append(self._last - start)

    def scaled(self, start, end):
        """The measured interval [start, end] rescaled to reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.durations[lo:hi] or [self.durations[min(lo, len(self.durations) - 1)]]
        return (end - start) * REFERENCE_PROBE_S / statistics.median(window)
