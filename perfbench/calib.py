"""Host-speed calibration: a fixed probe timed next to and during the
measured work.

The benchmark runs on shared virtual machines whose speed changes by tens of
percent from one second to the next and drifts over minutes, for every
program alike and separately on each CPU.  So each measured process times
this probe on its own CPU, in bursts between requests and, through a timer
signal, every ``TICK_S`` inside a request.  ``run.py`` then scales each
request time to a host of reference speed:

    scaled = measured * REFERENCE_S / typical probe time around and during it

where the typical probe time is the mean without the fastest and slowest
tenth of the probes (``typical``).

The probe does the kinds of work thetainv does (Python integer loops,
``Fraction`` arithmetic, numpy counting, JSON encoding and decoding), in
code of its own: a change to thetainv cannot change the probe's time, so a
slower program still reads slower.  The probe runs with the garbage
collector off, so that the size of the program's heap does not change the
probe's time either.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

# The probe's time on a quiet run of the 2-CPU host the README describes.
REFERENCE_S = 0.004
TICK_S = 0.2

_ARRAY = (np.arange(50_000, dtype=np.int64) * 7919) % 1000
_ROWS = [[i, -i, i % 7, 3] for i in range(1_000)]


def _probe() -> float:
    collecting = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    s = 0
    for i in range(12_000):
        s += i * i % 7
    x = Fraction(0)
    for i in range(1, 120):
        x += Fraction(1, i)
    np.bincount((_ARRAY * 3 + 1) % 1000, minlength=1000)
    json.loads(json.dumps(_ROWS))
    dt = time.perf_counter() - t
    if collecting:
        gc.enable()
    return dt


def burst(n: int = 3) -> list[float]:
    """``n`` back-to-back probe times."""
    return [_probe() for _ in range(n)]


def typical(samples: list[float]) -> float:
    """Mean probe time without the fastest and slowest tenth (at least one
    each): a probe that a rare long stall hit does not count, and the rest
    is averaged over the time it covers."""
    xs = sorted(samples)
    k = -(-len(xs) // 10)          # ceil: a burst of 3 + 3 loses 1 + 1
    return statistics.fmean(xs[k:len(xs) - k])


class Ticker:
    """Times one probe every ``TICK_S`` of wall time while active, by
    interrupting the work with SIGALRM; the probes' own time is kept apart
    so it can be taken out of the measured time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.samples.append(_probe())
        self.spent += time.perf_counter() - t

    @contextmanager
    def active(self):
        self.samples, self.spent = [], 0.0
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
