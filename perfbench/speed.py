"""The machine's speed during a run, read by a reference probe.

The benchmark runs on a few cores of a shared host, whose other tenants
slow every process on it by up to 1.7x, in phases that last from seconds
to minutes: often longer than a run, so no statistic over one run's own
samples can remove them.  `Probe` measures that slowdown while the
program runs.  A SIGALRM interval timer fires every INTERVAL_S of wall
time, and its handler times a fixed piece of interpreter work (`_work`,
a scan of a table of bit masks like the program's exhaustive checks).
The probe's time over REF_S is the slowdown at that moment.

A timed operation's net time is its wall time minus the probe time spent
inside it.  Its time at reference speed (`Probe.normalise`) is the net
time times the mean of 1/slowdown over the probes in it, or over the
NEAREST probes around it when it is shorter than that many intervals.
Each probe's slowdown is first the median of itself and its two
neighbours, so that one probe cut by a context switch does not count.

REF_S is the probe's time in a quiet phase on the machine the benchmark
was tuned on (2 cores of an Intel Xeon, Python 3.11), so that on that
machine a time at reference speed reads close to the wall time of a
quiet phase.  On other machines it is a fixed scale; the benchmark
compares runs on one machine.

The probe runs only in untraced runs.  Anything that slows the whole
interpreter (a trace or profile function, another SIGALRM handler) would
slow the probe with the program and hide itself, so `Probe.intact`
reports such a change and the benchmark counts it as a failure.
"""

from __future__ import annotations

import signal
import statistics
import sys
from array import array
from bisect import bisect_left
from time import perf_counter

INTERVAL_S = 0.05
REF_S = 3.5e-4
NEAREST = 9

# A fixed subset-table scan: rows of 128-bit masks tested pair by pair,
# the shape of the program's exhaustive checks.
_ROWS = tuple((m * 0x5BD1E995) & ((1 << 128) - 1) for m in range(128))


def _work():
    count = 0
    for a in range(128):
        ra = _ROWS[a]
        for b in range(0, 128, 3):
            if ra >> b & 1 and not a & b:
                count += 1
    return count


class Probe:
    def __init__(self):
        self.at = array("d")     # start of each probe
        self.dur = array("d")    # its duration
        self.spent = 0.0         # total probe time so far
        self._smooth = None
        self._busy = False

    def _handler(self, _signum, _frame):
        if self._busy:  # a late tick inside the probe itself
            return
        self._busy = True
        t0 = perf_counter()
        _work()
        t1 = perf_counter()
        self.at.append(t0)
        self.dur.append(t1 - t0)
        self.spent += t1 - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def intact(self):
        """None, or why the interpreter no longer runs as the probe saw it."""
        if sys.gettrace() is not None or sys.getprofile() is not None:
            return "a trace or profile function is installed"
        handler = signal.getsignal(signal.SIGALRM)
        if getattr(handler, "__self__", None) is not self:
            return "the SIGALRM handler was replaced"
        return None

    def _slowdowns(self):
        if self._smooth is None or len(self._smooth) != len(self.dur):
            d = self.dur
            n = len(d)
            self._smooth = [
                statistics.median(d[max(0, i - 1):i + 2]) / REF_S
                for i in range(n)]
        return self._smooth

    def normalise(self, t0, t1, net):
        """`net` seconds measured over [t0, t1], at reference speed."""
        s = self._slowdowns()
        inside = range(bisect_left(self.at, t0), bisect_left(self.at, t1))
        if len(inside) < NEAREST:
            mid = (t0 + t1) / 2
            k = bisect_left(self.at, mid)
            lo, hi = k, k
            while hi - lo < NEAREST and (lo > 0 or hi < len(s)):
                if lo > 0 and (hi >= len(s)
                               or mid - self.at[lo - 1] <= self.at[hi] - mid):
                    lo -= 1
                else:
                    hi += 1
            inside = range(lo, hi)
        if not inside:
            return net
        return net * statistics.fmean(1.0 / s[i] for i in inside)

    def mean_slowdown(self):
        s = self._slowdowns()
        return statistics.fmean(s) if s else 1.0

