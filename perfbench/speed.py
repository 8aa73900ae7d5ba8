"""Machine-speed probe: rescales timed work to a fixed reference speed.

On a shared host the CPU speed of one process changes by up to 2x within
a second, and the mix of fast and slow spells differs from one run to the
next, so raw wall times of identical code spread by 15-30% between runs.
The probe samples that speed while the work runs: a SIGALRM interval
timer interrupts the timed code every INTERVAL_S and, between `begin()`
and `end()`, runs a fixed piece of benchmark-owned work (small numpy
linear algebra, whole-array loops and scattered memory reads) and times
it.  Each stretch of work between two
probes is rescaled by REF_S over the duration of the probe that ends it:
`scaled_s` is the time the work would have taken on a machine where one
probe takes REF_S seconds.  Probe time itself is left out of `active_s`
and `scaled_s`.  Sampling has to be concurrent with the work: speed
changes decorrelate within about a second, so a probe run before or
after a round does not predict the round's speed.

The probe's own code is fixed; a change to the package changes the work
between probes, never the probe, so a speed-up of the package shows in
full in the rescaled times.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02   # probe period while active
REF_S = 2.0e-3      # probe duration that defines the reference speed


class Probe:
    """Samples machine speed from a signal handler between begin() and end()."""

    def __init__(self):
        self.active = False
        self.count = 0        # probes run
        self.busy = 0.0       # seconds spent in probes
        self.active_s = 0.0   # seconds between begin() and end(), probes excluded
        self.scaled_s = 0.0   # active_s rescaled to the reference speed
        self._mark = 0.0      # end of the last probe, or the last begin()
        self._last = REF_S    # duration of the last probe
        rng = np.random.default_rng(0)
        self._table = rng.random(1 << 19)                      # 4 MiB, beyond L2
        self._gather = rng.integers(0, self._table.size, 20000)
        self._m = rng.random((4, 4))
        self._poly = rng.random(5)
        self._ring = rng.random(4000)
        self._index = np.arange(4000)
        self._previous = None

    def _work(self) -> float:
        """Three kinds of work the package does: small dense linear algebra
        (the modulation layer, per state), short loops of whole-array
        operations on a few thousand cells (the solver), and scattered reads
        from a table larger than L2, which feel the memory contention that
        the other two do not."""
        acc = 0.0
        for _ in range(10):
            acc += float(np.abs(np.linalg.eigvals(self._m)).sum())
            acc += float(np.roots(self._poly).real.sum())
            acc += float(np.linalg.det(self._m))
        n = self._ring.size
        for shift in range(1, 16):
            v = self._ring[(self._index + shift) % n]
            acc += float(np.count_nonzero(v >= 0.5 * v.max()))
        for _ in range(3):
            acc += float(np.take(self._table, self._gather).sum())
        return acc

    def _account(self, seconds: float) -> None:
        self.active_s += seconds
        self.scaled_s += seconds * REF_S / self._last

    def _on_alarm(self, signum, frame) -> None:
        if not self.active:
            return
        t0 = perf_counter()
        self._work()
        t1 = perf_counter()
        self._last = t1 - t0
        self._account(t0 - self._mark)
        self._mark = t1
        self.busy += self._last
        self.count += 1

    def start(self) -> None:
        """Install the handler and arm the timer; sampling waits for begin()."""
        self._work()   # the first call pays numpy's lazy set-up
        t0 = perf_counter()
        self._work()
        self._last = perf_counter() - t0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        self.end()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def begin(self) -> None:
        self._mark = perf_counter()
        self.active = True

    def end(self) -> None:
        """Close a timed stretch; its tail is rescaled by the last probe."""
        if self.active:
            self.active = False
            self._account(perf_counter() - self._mark)

    def clock(self) -> float:
        """perf_counter() less the time spent in probes so far."""
        return perf_counter() - self.busy

    def stats(self) -> dict:
        return {"count": self.count, "busy_s": self.busy,
                "active_s": self.active_s, "scaled_s": self.scaled_s}


def mean_probe_s(stats: list[dict]) -> float:
    """Mean probe duration over several probes' stats; 0.0 if none ran."""
    count = sum(s["count"] for s in stats)
    return sum(s["busy_s"] for s in stats) / count if count else 0.0


def child_time(wall: float, stats: dict) -> tuple[float, float]:
    """(net, rescaled) seconds of a child process timed from spawn to exit.

    The child's probe covers its active stretch; the rest of its life
    (interpreter start, the imports before the probe, exit) is rescaled
    by the child's mean probe.
    """
    net = wall - stats["busy_s"]
    mean = mean_probe_s([stats])
    rest = net - stats["active_s"]
    return net, stats["scaled_s"] + (rest * REF_S / mean if mean > 0.0 else rest)
