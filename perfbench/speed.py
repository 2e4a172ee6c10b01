"""Host-speed probe: puts wall times on one speed scale.

A vCPU of a shared host does not run at one speed.  On the reference box
it flips every few seconds between an uncontended speed and one about 1.5x
slower (another tenant on the sibling hyperthread), and the two vCPUs flip
independently.  A run's median call time then depends mostly on how much
of the run fell in the slow mode, which is why the same code spread by
15-30% between runs.

The probe measures that speed in the measured process itself.  Every
``INTERVAL_S`` a ``SIGALRM`` handler runs a fixed pure-Python reference
workload (object construction, attribute reads, a heap and a dict -- the
operations the simulator is made of) and records when it ran and how long
it took.  A measured interval is then corrected in two steps:

1. the probe's own time inside the interval is subtracted;
2. the rest is scaled by ``(REFERENCE_S / median(probe durations)) **
   EXPONENT``, the median taken over the probes inside the interval
   (widened to at least ``MIN_WINDOW_S`` around its middle).

The simulator slows down less than the small, cache-resident reference.
On the reference box, fitting log(call time) against log(probe time) over
50-80 calls per batch workload gave slopes of 0.5-0.6; the medians of
25-second windows spread least with exponents of 0.5-0.8; and the
service's closed-loop completions per second followed the server's probe
with an exponent of about 0.5.  ``EXPONENT`` sits in that range.

The result is the interval's length at the host speed at which the
reference takes ``REFERENCE_S`` -- about the reference box's uncontended
speed -- in "normalised seconds".  The reference is the benchmark's own
code, so at a fixed host speed a change to the program moves the
corrected times by the same share as the raw ones.
"""

from __future__ import annotations

import heapq
import json
import signal
import statistics
import time
from bisect import bisect_left
from typing import List, Optional, Tuple

#: Seconds between probes (wall clock).
INTERVAL_S = 0.02
#: Seconds the reference workload takes at the reference box's
#: uncontended speed; corrected times are scaled to this speed.
REFERENCE_S = 0.0005
#: How strongly a measured time follows the probe's slowdown (see above).
EXPONENT = 0.7
#: Shortest window of probes used to correct one interval.
MIN_WINDOW_S = 0.5
#: Iterations of the reference workload (about ``REFERENCE_S`` of work).
REFERENCE_ITERATIONS = 600


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def reference() -> int:
    """The fixed reference workload.  Never change it: it defines the scale."""
    heap: List[Tuple[int, int, _Item]] = []
    counts = {}
    total = 0
    for index in range(REFERENCE_ITERATIONS):
        item = _Item(index, (index * 7919) & 255)
        heapq.heappush(heap, (item.value, index, item))
        counts[item.value] = counts.get(item.value, 0) + 1
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].key
    return total + len(counts)


class SpeedProbe:
    """Samples the host's speed from a timer signal in this process."""

    def __init__(self) -> None:
        #: ``(start, duration)`` of every probe, in ``time.perf_counter`` time.
        self.samples: List[Tuple[float, float]] = []
        self._previous: Optional[object] = None

    @classmethod
    def load(cls, path: str) -> "SpeedProbe":
        """The samples another process wrote to ``path`` as JSON."""
        probe = cls()
        with open(path) as handle:
            probe.samples = [(start, duration) for start, duration in json.load(handle)]
        return probe

    def _probe(self, _signum: int, _frame: object) -> None:
        started = time.perf_counter()
        reference()
        self.samples.append((started, time.perf_counter() - started))

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def correct(self, start: float, end: float, subtract: bool = True) -> float:
        """Normalised length of the interval ``[start, end)``.

        ``subtract=False`` keeps the probes' own time in the interval: for
        another process's probe (a server's), which delayed the measured
        work only if it ran while that work was being done.  Falls back to
        the raw length when no probe ran near the interval.
        """
        starts = [s for s, _d in self.samples]

        def between(low: float, high: float) -> List[float]:
            return [d for _s, d in self.samples[bisect_left(starts, low) : bisect_left(starts, high)]]

        inside = sum(between(start, end)) if subtract else 0.0
        middle = (start + end) / 2.0
        half = max(end - start, MIN_WINDOW_S) / 2.0
        window = between(middle - half, middle + half)
        if not window:
            return end - start
        return (end - start - inside) * (REFERENCE_S / statistics.median(window)) ** EXPONENT

    def speed(self) -> float:
        """Median host speed over every probe, relative to the reference speed."""
        if not self.samples:
            return 1.0
        return REFERENCE_S / statistics.median(d for _s, d in self.samples)
