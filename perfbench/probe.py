"""The speed probe: CPU time scaled to the speed of a calm core.

The machine's vCPUs are shared, and the CPU time of the same Python work
changes by up to a factor of two from one few milliseconds to the next and
for stretches of minutes, as neighbours load the physical core (README.md,
"Timer").  No number of repeats within a 40-second run evens that out for
operations of seconds.  So while a run measures, :class:`Probe` samples the
speed the process is given: every ``INTERVAL`` seconds of the process's CPU
time a profiling-timer signal runs :func:`probe_work`, a fixed piece of work
of the program's kind (Fraction products, dict updates), and times it with
the run's one clock, :func:`tracer.cpu_seconds`.

An interval's *scaled time* is its CPU time, less the samples taken inside
it, times the mean of ``CALM_S / sample`` over those samples (over the
``NEAREST`` samples nearest to it when it holds fewer): the time it would
have taken at the speed at which the probe takes ``CALM_S``.  Samples are
taken at even steps of CPU time, so the mean weighs each stretch of the
interval by its length.

Garbage collection is switched off while the probe works, so that a
collection the program's objects are due for is not timed as probe time.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
from array import array
from fractions import Fraction

from tracer import cpu_seconds

INTERVAL = 0.01
# about the probe's duration on a calm vCPU of the machine in README.md; it
# only sets the unit, every comparison is a ratio of two scaled times
CALM_S = 0.00016
NEAREST = 3

_rng = random.Random("probe")
_TABLE = [[Fraction(_rng.randint(-3, 3), _rng.randint(1, 3)) for _ in range(6)]
          for _ in range(6)]
_WEIGHTS = {j: Fraction(_rng.randint(1, 5), _rng.randint(1, 5)) for j in range(6)}


def probe_work():
    """The fixed work one sample times."""
    total = Fraction(0)
    sums: dict[int, Fraction] = {}
    for row in _TABLE:
        for j, v in enumerate(row):
            total += v * _WEIGHTS[j]
            sums[j] = sums.get(j, 0) + v
    return total, sums


class Probe:
    """Samples the process's speed while it is entered, and scales the
    intervals measured meanwhile with :meth:`mark` and :meth:`took_since`.
    One that is never entered takes no samples and scales nothing."""

    def __init__(self):
        self.at = array("d")    # CPU time at which each sample started
        self.took = array("d")  # each sample's duration
        self.spent = 0.0        # CPU time spent in samples, bookkeeping included

    def _sample(self, signum, frame):
        start = cpu_seconds()
        collecting = gc.isenabled()
        gc.disable()
        try:
            probe_work()
            took = cpu_seconds() - start
        finally:
            if collecting:
                gc.enable()
        self.at.append(start)
        self.took.append(took)
        self.spent += cpu_seconds() - start

    def __enter__(self) -> "Probe":
        self._handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._handler)

    def mark(self) -> tuple[float, float]:
        return cpu_seconds(), self.spent

    def took_since(self, mark: tuple[float, float]) -> tuple[float, float, float]:
        """``(start, end, CPU seconds less the samples)`` since ``mark``."""
        start, spent = mark
        end = cpu_seconds()
        return start, end, end - start - (self.spent - spent)

    def scaled(self, start: float, end: float, took: float) -> float:
        """``took``, measured from ``start`` to ``end``, at the calm speed.
        Call once the probe has been left, so that samples on both sides of
        a short interval are there."""
        at = self.at
        if not at:
            return took
        lo = bisect.bisect_left(at, start)
        hi = bisect.bisect_left(at, end)
        while hi - lo < min(NEAREST, len(at)):
            if hi < len(at) and (lo == 0 or at[hi] - end < start - at[lo - 1]):
                hi += 1
            else:
                lo -= 1
        speed = sum(CALM_S / max(t, 1e-6) for t in self.took[lo:hi]) / (hi - lo)
        return took * speed

