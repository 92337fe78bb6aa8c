"""Host-speed correction for the benchmark's timings.

The benchmark runs on a few cores of a shared host.  When other tenants
load it, the same Python code runs up to twice as slowly for seconds at
a time, and a run's wall time says more about the neighbours than about
the program.  A fixed probe measures how fast the host runs Python at
each moment, and every timing is divided by it.

:class:`HostProbe` runs :func:`probe` from a ``SIGALRM`` handler every
:data:`PERIOD_S` seconds of wall time, in the measured process's own
thread, between two bytecodes of whatever the program is doing, and
records when each probe started and ended.  :class:`Timeline` then
converts a wall-clock interval into reference seconds: probe time is
left out, and each stretch between two probes is divided by
``(d / REFERENCE_S) ** EXPONENT``, where ``d`` is the mean duration of
the probes on either side of it.  Seconds at host factor 1 are
reference seconds.

The probe allocates no object the garbage collector tracks, so it does
not shift the program's collections.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

clock = time.perf_counter

#: Wall time between two probes.
PERIOD_S = 0.025
#: The probe duration that counts as host factor 1: about the probe's
#: duration inside a measured child on the calibration host (README.md)
#: when it was quiet.
REFERENCE_S = 0.0007
#: The workloads slow down more than the probe does when the host is
#: loaded: the probe's table fits the first-level cache, theirs do not.
#: On the calibration host, time divided by the plain host factor
#: still grew as about ``factor ** 0.2`` to ``factor ** 0.25`` on
#: ``engine-read`` and ``optimize-deep`` (README.md, Reference seconds).
EXPONENT = 1.2

_TABLE = dict.fromkeys(range(512), 0)


def probe() -> None:
    """Fixed interpreter work: 4,000 dict updates on small ints."""
    table = _TABLE
    for i in range(4000):
        key = i & 511
        table[key] = (table[key] + i) & 0xFFFF


class HostProbe:
    """Probes the host's speed while the process runs.

    ``start()`` and ``stop()`` each probe once themselves, so every
    interval between them lies between two probes.
    """

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _probe(self, *_signal) -> None:
        start = clock()
        probe()
        self.starts.append(start)
        self.ends.append(clock())

    def start(self) -> None:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def timeline(self) -> "Timeline":
        return Timeline(self.starts, self.ends)


class Timeline:
    """Converts wall-clock intervals, in :data:`clock` seconds, to
    reference seconds (:meth:`reference`) or to wall seconds without the
    probes (:meth:`wall`)."""

    def __init__(self, starts: list[float], ends: list[float]) -> None:
        if not starts:
            raise ValueError("no probe was recorded")
        self.starts, self.ends = starts, ends
        durations = [end - start for start, end in zip(starts, ends)]
        last = len(durations) - 1
        #: Host factor of each stretch: stretch ``j`` ends where probe
        #: ``j`` starts; the last one follows the last probe.
        self.factors = [
            (durations[max(j - 1, 0)] + durations[min(j, last)]) / 2 / REFERENCE_S
            for j in range(len(durations) + 1)
        ]
        self.host_factor = statistics.median(durations) / REFERENCE_S
        self._scales = [factor ** EXPONENT for factor in self.factors]
        self._ones = [1.0] * len(self.factors)
        self._reference = self._knots(self._scales)
        self._wall = self._knots(self._ones)

    def _knots(self, factors: list[float]) -> list[float]:
        """Cumulative converted time at the start of each probe."""
        knots = [0.0]
        for j in range(1, len(self.starts)):
            gap = self.starts[j] - self.ends[j - 1]
            knots.append(knots[-1] + gap / factors[j])
        return knots

    def _at(self, t: float, knots: list[float], factors: list[float]) -> float:
        j = bisect.bisect_right(self.starts, t)
        if j == 0:
            return (t - self.starts[0]) / factors[0]
        if t <= self.ends[j - 1]:
            return knots[j - 1]
        return knots[j - 1] + (t - self.ends[j - 1]) / factors[j]

    def reference(self, start: float, end: float) -> float:
        """Reference seconds between two instants."""
        knots, scales = self._reference, self._scales
        return self._at(end, knots, scales) - self._at(start, knots, scales)

    def wall(self, start: float, end: float) -> float:
        """Wall seconds between two instants, less the probes."""
        knots, ones = self._wall, self._ones
        return self._at(end, knots, ones) - self._at(start, knots, ones)
