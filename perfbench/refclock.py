"""Seconds at a fixed reference speed, for timing on a shared host.

The machines this benchmark runs on share their cores with other
tenants.  One CPU's speed was seen to swing between about 45% and 95% of
its best, in phases from under a second to over a minute, with no steal
time shown to the guest, so a wall-clock time measures the neighbours as
much as the code: raw verdict times of one item spread by a factor of
two within a few minutes.

RefClock times a block by its wall time and, every PERIOD_S during it
and once on each side of it, runs KERNEL, a fixed piece of pure-Python
work (``Fraction`` arithmetic and a dict keyed by tuples, like
hopfspan's).  KERNEL_S over the kernel's time is the speed the CPU runs
at at that moment.  The block's reference seconds are its wall time,
less the time the kernel itself took, times the mean of those speeds:
the seconds it would have taken had the CPU run at the speed that makes
the kernel take KERNEL_S throughout.  Within a decision the samples
follow the swings, and an item's reference seconds then spread by a few
per cent where its wall time spreads by twenty.

The kernel costs 2-5% of the wall time, runs in a SIGALRM handler in
the main thread, and touches no state of the code being timed.
"""

import contextlib
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01
# The kernel's time in the handler with the CPU at full speed: its lowest
# percentile, 190-230 us by workload, over some thousands of samples on
# an Intel Xeon (family 6, model 207) at 2.1 GHz.  It only sets the
# scale: reference seconds read about as wall seconds on that machine
# when its core is not shared.
KERNEL_S = 200e-6


def kernel():
    table = {}
    for i in range(100):
        table[(i, i & 7, "k")] = Fraction(i, 3)
    total = Fraction(0)
    for i in range(100):
        total += table[(i, i & 7, "k")]
    return total


class RefClock:
    """``with clock.timing() as timed: ...`` leaves the block's reference
    seconds in ``timed.seconds`` and its wall seconds in ``timed.wall``."""

    def __init__(self):
        self.speeds = []
        self.spent = 0.0
        self.seconds = self.wall = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.speeds.append(KERNEL_S / took)
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def timing(self):
        self.speeds, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        spent_before = self.spent
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - start
            self.wall = wall - (self.spent - spent_before)
            self._sample()
            signal.signal(signal.SIGALRM, previous)
            self.seconds = self.wall * statistics.fmean(self.speeds)


class WallClock:
    """The same interface, in plain wall seconds (for traced passes)."""

    seconds = wall = None

    @contextlib.contextmanager
    def timing(self):
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.seconds = self.wall = time.perf_counter() - start
