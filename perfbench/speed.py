"""How fast the machine runs right now, sampled while the passes run.

The speed of a shared two-core box drifts by up to 30 % within seconds
(other tenants on the same host).  ``probe`` times a fixed loop of
interpreter work whose code and data fit in the core's first-level
caches, so what the program keeps in memory or pulls through the shared
cache does not enter it.  ``Sampler`` runs the probe on SIGALRM every
INTERVAL_S seconds of wall time through the timed loop, inside passes
and between them, so that a pass's wall time can be scaled to the box's
usual speed:

    scaled = (wall - time spent in probes) * REFERENCE_S / median(probes)

where the probes are those taken during the pass, or, for a pass too
short to hold MIN_PROBES, the MIN_PROBES taken nearest to it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# iterations of the probe loop
PROBE_LOOPS = 20_000
# median probe time on the reference box (2-core VM, Python 3.11) over
# 80 runs of the four workloads: a scaled time reads as the wall time of
# that box at its usual speed
REFERENCE_S = 1.9e-3
# seconds of wall time between probes while the sampler runs
INTERVAL_S = 0.1
# probes pooled at least for one pass's speed
MIN_PROBES = 10
# probes on each side of a set-up measurement
BURST = 5


def probe() -> float:
    """Seconds taken by a fixed loop of interpreter work."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def burst() -> list[float]:
    """BURST probes back to back, for a span too short to sample."""
    return [probe() for _ in range(BURST)]


def scaled(wall: float, probes: list[float]) -> float:
    """``wall`` seconds at the measured speed, in seconds at the
    reference speed."""
    return wall * REFERENCE_S / statistics.median(probes)


class Sampler:
    """Probes taken on SIGALRM while the sampler is entered, each kept
    with the time it ended."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        self.took.append(probe())
        self.at.append(time.perf_counter())

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)   # so that every pass has a probe
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """Wall seconds of the pass that ran from ``start`` to ``end``
        less the probes inside it, and those seconds scaled."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        wall = end - start - sum(self.took[lo:hi])
        # widen to the nearest probes on either side until enough
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            before = start - self.at[lo - 1] if lo > 0 else float("inf")
            after = self.at[hi] - end if hi < len(self.at) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return wall, scaled(wall, self.took[lo:hi])
