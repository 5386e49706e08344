"""The host's speed along a run, from a fixed probe, to scale timings by.

On a shared host the same operation on the same input runs up to 1.7x
slower while neighbours load the physical core, in spells of seconds to
minutes, so whole runs can land in a slow or a fast spell.  The probe is a
fixed piece of exact arithmetic made only of the standard library (Gaussian
elimination of one 12x12 ``Fraction`` matrix, about 2.5 ms), the same kind
of work as pelkit's.  It runs between operations, never inside one.  Each
latency is scaled by ``REFERENCE_S / probe time around it``, which gives it
as it would read on a host where the probe takes ``REFERENCE_S``.  A change
to pelkit moves the operations and not the probe, so it moves the scaled
timings as it moves the raw ones; what the host does moves both, and cancels.

A child process slows less than the probe in a slow spell: it spends more
of its time starting up, on cold caches.  Over ten runs of the ``cli``
workload (a child per operation) on the host described in README.md, the
unscaled median latency, 90th percentile and throughput went as the run's
median probe time to the powers 0.55, 0.83 and -0.61.  Such a workload
scales by the probe factor to the power ``CHILD_SENSITIVITY``.
"""

from __future__ import annotations

import statistics
from bisect import bisect
from fractions import Fraction
from random import Random
from time import perf_counter

REFERENCE_S = 0.0025  # the probe's time on an idle host of the kind described in README.md
EVERY_S = 0.05  # a probe runs before an operation when this long has passed since the last
NEIGHBOURS = 3  # probes on each side of an operation that give its speed
CHILD_SENSITIVITY = 0.7  # see above

_RNG = Random(12)
_MATRIX = [[Fraction(_RNG.randint(-9, 9)) for _ in range(12)] for _ in range(12)]


def probe() -> float:
    """Time one Gaussian elimination of the fixed matrix, in seconds."""
    t0 = perf_counter()
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return perf_counter() - t0


def bracket(fn, probes=5):
    """Run ``fn`` between ``probes`` probes before and after it; return its
    result, its time and that time scaled to the reference speed."""
    probe()  # the first run in a process pays for warming up the interpreter
    before = [probe() for _ in range(probes)]
    start = perf_counter()
    out = fn()
    took = perf_counter() - start
    after = [probe() for _ in range(probes)]
    return out, took, took * REFERENCE_S / statistics.median(before + after)


class Track:
    """Probe times along a timed loop, on the loop's clock (seconds from its
    start).  ``sensitivity`` is the power of the probe factor that a timing
    of the loop follows: 1 in process, ``CHILD_SENSITIVITY`` for children."""

    def __init__(self, sensitivity: float = 1.0):
        self.sensitivity = sensitivity
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = None

    def tick(self, now: float) -> None:
        """Probe if ``EVERY_S`` has passed since the last probe; ``now`` is
        the loop's clock before the next operation."""
        if self._last is None or now - self._last >= EVERY_S:
            took = probe()
            self.at.append(now + took / 2)
            self.took.append(took)
            self._last = now + took

    def scale(self, mid: float) -> float:
        """Factor that takes a time around ``mid`` to the reference speed:
        the reference over the median of the nearest probes, to the power
        ``sensitivity``."""
        i = bisect(self.at, mid)
        near = self.took[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return (REFERENCE_S / statistics.median(near)) ** self.sensitivity

    def summary(self) -> dict:
        return {"probes": len(self.took), "median_ms": statistics.median(self.took) * 1000,
                "min_ms": min(self.took) * 1000, "max_ms": max(self.took) * 1000}
