"""Host-speed sampling, so that timings can be read at a fixed host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x within minutes while CPU time still equals wall time: the
interpreter simply runs slower.  Medians within one run cannot remove a
drift that lasts longer than the run.  So every measured process samples
the host's speed while it works: a SIGALRM handler runs a fixed slice of
work every INTERVAL_S seconds and times it.  A timing is then reported as

    normalised = (elapsed - time spent in slices) * mean(REFERENCE_SLICE_S / slice)

over the slices taken inside it: the seconds it would have taken at the
speed at which one slice takes REFERENCE_SLICE_S.

The slice inverts a fixed 5 x 5 Fraction matrix, the kind of work degenlab
does most, because a slice of plain integer arithmetic was seen to track
the drift far worse.  It is the benchmark's own code on the standard
library only, and it runs with the garbage collector switched off, so no
change to degenlab (its gc settings or caches, say) changes its speed.
"""

from __future__ import annotations

import gc
import random
import signal
from fractions import Fraction
from time import perf_counter

# one slice every INTERVAL_S of wall time: about 2 % of the run
INTERVAL_S = 0.05
# one slice's time at the reference speed (a quiet moment of the 2-core
# Xeon host the benchmark was defined on); it sets only the unit
REFERENCE_SLICE_S = 0.0011

_rng = random.Random(5)
_MATRIX = [[Fraction(_rng.randint(-3, 3) + (5 if i == j else 0)) for j in range(5)]
           for i in range(5)]
_ONE, _ZERO = Fraction(1), Fraction(0)


def _slice():
    """Gauss-Jordan inverse of _MATRIX."""
    n = len(_MATRIX)
    rows = [row + [_ONE if i == j else _ZERO for j in range(n)]
            for i, row in enumerate(_MATRIX)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv_p = 1 / rows[c][c]
        rows[c] = [x * inv_p for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return rows


class HostSpeed:
    """Samples the host's speed on a timer from start() to stop()."""

    def __init__(self):
        self.slices = []  # seconds per slice, in order
        self.slice_total = 0.0  # seconds spent in sample() so far

    def sample(self, *_):
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            begin = perf_counter()
            _slice()
            self.slices.append(perf_counter() - begin)
        finally:
            if collecting:
                gc.enable()
            self.slice_total += perf_counter() - start

    def start(self):
        self.sample()  # warm the slice's code before it is timed on the timer
        self.slices.clear()
        self.slice_total = 0.0
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def work_clock(self) -> float:
        """perf_counter() less the time spent in sample() so far."""
        while True:
            total = self.slice_total
            now = perf_counter()
            if total == self.slice_total:  # no sample ran in between
                return now - total

    def factor(self, first: int = 0, last: int | None = None) -> float:
        """Mean of REFERENCE_SLICE_S / slice over slices [first, last)."""
        taken = self.slices[first:last]
        if not taken:
            return 1.0
        return sum(REFERENCE_SLICE_S / s for s in taken) / len(taken)
