"""A fixed piece of pure-Python work that every timed piece of the benchmark is measured against.

The machine the benchmark runs on is shared, and its speed drifts by a third
within minutes, and by a tenth within seconds, for every program alike.  The
kernel below measures the machine's speed at a moment.  While a `Yardstick`
is entered, a SIGALRM handler runs the kernel every `PERIOD` seconds, all
through the benchmark's work, and records its time.  The handler's time is
taken out of the work's time: `clock()` is `perf_counter()` less the time
spent in the handler.  `scale(t0, t1)` turns the work done between two
readings of that clock into reference seconds: the time it would have taken
at the speed at which one kernel takes `KERNEL_S`, the speed being the mean
kernel time of the samples taken from `WINDOW` seconds before the work to
`WINDOW` seconds after it.

The kernel does the kind of work rlsheaf does (frozensets closed under union
and intersection, tuple-keyed dicts, sorting), but calls nothing of rlsheaf,
so a change to the program moves the scaled times as much as the raw ones.
Everything runs in the one thread of the process.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
from time import perf_counter, sleep

# Nominal time of one kernel, about its median on a 2-vCPU x86_64 machine
# with Python 3.11, where it ranged from 4.4 to 8.1 ms over four minutes.
KERNEL_S = 0.006

# Seconds between samples; each costs one kernel.
PERIOD = 0.05

# A piece of work is scaled by the samples from this many seconds before it
# to this many after it: about five samples for the shortest operations.
WINDOW = 0.125

_FAMILY = [frozenset(range(i, i + 3)) for i in range(0, 9, 2)]


def kernel() -> int:
    """Close a family of sets under union and intersection, then index it by sorted tuples."""
    fam = set(_FAMILY)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(fam), 2):
            for c in (a | b, a & b):
                if c not in fam:
                    fam.add(c)
                    changed = True
    index = {tuple(sorted(s)): len(s) for s in fam}
    return len(index)


# The five 3-sets S_i = {2i, 2i+1, 2i+2} meet pairwise in at most one of the
# shared points 2, 4, 6, 8, so their closure under union and intersection is
# every union of some S_i with some shared points.  Counted once each: for each
# choice A of the S_i, any subset of the shared points that A leaves uncovered,
# sum over A of 2^(uncovered points) = 89.
KERNEL_RESULT = 89


class Yardstick:
    """Samples of the kernel's time, taken while entered, and work times scaled by them."""

    def __init__(self):
        if kernel() != KERNEL_RESULT:
            raise RuntimeError("the yardstick kernel gives a wrong result")
        self.stolen = 0.0  # seconds spent in the SIGALRM handler
        self.at: list[float] = []  # clock() at the start of each sample
        self.kernel_s: list[float] = []  # the sample's kernel time
        self._busy = False

    def clock(self) -> float:
        """perf_counter() less the time the handler has taken so far."""
        while True:
            stolen = self.stolen
            now = perf_counter()
            if stolen == self.stolen:
                return now - stolen

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.at.append(t0 - self.stolen)
        self.kernel_s.append(t1 - t0)
        self.stolen += perf_counter() - t0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def settle(self):
        """Let the samples run on past the last piece of work, so that its window is full."""
        sleep(WINDOW + PERIOD)

    def scale(self, t0: float, t1: float) -> float:
        """The work between clock() readings t0 and t1, in reference seconds."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW)
        hi = bisect.bisect_right(self.at, t1 + WINDOW)
        if lo == hi:  # no sample in the window: the nearest on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return (t1 - t0) * KERNEL_S / statistics.fmean(self.kernel_s[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.kernel_s) * 1000.0
