"""Timings in reference seconds, for hosts whose speed drifts.

On a shared host the same single-threaded loop can run twice as fast in one
second as in the next, because other tenants load the same cores; process
CPU time drifts with it, so it is no remedy.  While work is timed, a
``SpeedSampler`` therefore runs a small fixed probe every ``INTERVAL_S`` from
a SIGALRM handler, inside long items too.  The probe's mix of work resembles
the library's hot loops, because kinds of work slow down by different
amounts when a neighbour loads the core.  An interval of work is converted
to reference seconds, seconds on a host where one probe takes
``PROBE_REF_S``, by subtracting the probes that ran inside it and scaling by
the probes that ran within ``WINDOW_S`` of it.  Raw seconds are kept in the
results file next to the reference ones.
"""

import signal
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter

import numpy as np

PROBE_REF_S = 0.0005
INTERVAL_S = 0.02
WINDOW_S = 0.05


def _step(table, i):
    key = (i & 31, i % 7)
    table[key] = table.get(key, 0) + ((i * 2654435761) & 0xFFFF)


class _Chain:
    """An 8-element chain as bitmask rows and a numpy table, the shapes of
    work the library spends its time on."""

    __slots__ = ("up", "table")

    def __init__(self):
        self.up = [0xFF & ~((1 << i) - 1) for i in range(8)]
        self.table = np.arange(64, dtype=np.int64).reshape(8, 8) % 8

    def leq(self, i, j):
        return (self.up[i] >> j) & 1 == 1


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_CHAIN = _Chain()


def probe():
    """A fixed mix of calls, generators, tuple, dict, int and numpy scalar
    work, in roughly the proportions of the library's hot loops."""
    table = {}
    for i in range(200):
        _step(table, i)
    acc = 0
    for mask in range(0, 256, 5):
        members = list(_bits(mask))
        for u in range(8):
            if all(_CHAIN.leq(a, u) for a in members):
                acc = int(_CHAIN.table[acc, u])


class SpeedSampler:
    """Context manager: samples the probe's duration while it is active."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._previous = None
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a handler can be entered again between bytecodes
            return
        self._busy = True
        start = perf_counter()
        probe()
        self.took.append(perf_counter() - start)
        self.at.append(start)
        self._busy = False

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def converter(self):
        """A function mapping an interval (start, end) of work to its seconds
        without the probes inside it, raw and in reference seconds."""
        at, took = self.at, self.took
        cum_took = [0.0, *accumulate(took)]
        cum_rate = [0.0, *accumulate(PROBE_REF_S / t for t in took)]
        last = len(at) - 1

        def reference_seconds(start, end):
            paused = cum_took[bisect_right(at, end)] - cum_took[bisect_left(at, start)]
            i, j = bisect_left(at, start - WINDOW_S), bisect_right(at, end + WINDOW_S)
            if i == j:
                i = min(i, last)
                j = i + 1
            rate = (cum_rate[j] - cum_rate[i]) / (j - i)
            return end - start - paused, (end - start - paused) * rate

        return reference_seconds
