"""Machine-speed probe, sampled on a timer while the benchmark runs.

On a shared host the speed a process gets is not its own: when another
tenant loads the same physical core, the same code runs up to twice as
slowly, in stretches of seconds to minutes. Every ``INTERVAL_S`` of wall
time, a SIGALRM handler times ``probe_work``, a fixed piece of interpreter
work unrelated to crowdtree. The mean probe time over an interval, divided
by ``NOMINAL_S``, is that interval's slowdown. Dividing a measured time by
it gives the time the same work takes at nominal speed.

The handler runs in the main thread between bytecodes, so a job's wall time
includes the probes taken during it; ``probe_time`` returns that share so
it can be subtracted.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left, bisect_right

INTERVAL_S = 0.02
# Slowdowns are averaged over the interval widened by this much on each
# side: the host's load changes over seconds, and a 0.1 s job alone holds
# too few probes for a steady mean.
PAD_S = 0.5
PROBE_LOOPS = 1000
# Probe time at nominal speed: the fast mode of the probe on the 2-core
# x86-64 virtual machine the benchmark's bounds were set on.
NOMINAL_S = 0.00025


def probe_work() -> int:
    bins: dict = {}
    for i in range(PROBE_LOOPS):
        key = (i % 97, i % 13)
        bins[key] = bins.get(key, 0) + 1
    return len(bins)


class SpeedProbe:
    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def _inside(self, t0: float, t1: float) -> array:
        """Durations of the probes started in [t0, t1]."""
        return self.durations[bisect_left(self.starts, t0):bisect_right(self.starts, t1)]

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean slowdown over [t0 - PAD_S, t1 + PAD_S] against nominal
        speed; with no probe there, the probe nearest to its middle."""
        window = self._inside(t0 - PAD_S, t1 + PAD_S)
        if not window:
            if not self.starts:
                return 1.0
            i = min(bisect_left(self.starts, (t0 + t1) / 2), len(self.starts) - 1)
            if i > 0 and (t0 + t1) / 2 - self.starts[i - 1] < self.starts[i] - (t0 + t1) / 2:
                i -= 1
            window = self.durations[i:i + 1]
        return sum(window) / len(window) / NOMINAL_S

    def probe_time(self, t0: float, t1: float) -> float:
        """Wall time spent in probes started in [t0, t1]."""
        return sum(self._inside(t0, t1))
