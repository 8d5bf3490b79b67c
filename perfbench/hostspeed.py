"""Host-speed reference for the timing metrics.

The shared host this benchmark runs on changes speed by 1.3 to 1.8 times,
every few seconds and sometimes for minutes: the same fixed work, timed
over 30 s windows a few seconds apart, spreads by 0.2 to 0.3 of its median
from one window to the next. No CPU of the two is steadily the faster, and
process CPU time drifts with wall time, so the cause is the host and a
longer run does not average it out. The drift is common to all work in the
process, though: a fixed reference kernel timed next to a stage slows down
with it. Over ten seeds per workload, scaling by the reference cut the
run-to-run spread (interquartile range over median) of the stage timings
from 0.06-0.33 in wall time to 0.02-0.14.

Every timed sample is therefore bracketed by two probes of the reference,
a sample longer than ``PERIOD_S`` is also probed every ``PERIOD_S`` while it
runs (its own wall time excludes those probes), and each timing metric is
reported as

    wall time * NOMINAL_S / (mean of the probes beside and inside it)

that is, in seconds on a host where one probe takes ``NOMINAL_S``. The raw
wall times go into the record file next to the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

# One probe on the fast speed level of a 2-vCPU Intel Xeon (2.1 GHz), one
# BLAS thread: its 10th percentile over 400 probes, rounded.
NOMINAL_S = 0.002
PERIOD_S = 0.25  # between probes inside a long sample

_MATRIX = np.random.default_rng(0).standard_normal((128, 128))
_COUNTS = {}


def probe():
    """Wall time of one run of the reference kernel: interpreter work (a
    dict histogram of ints and a sort) and BLAS work (small matrix
    products), about half each, as the pipeline stages mix them.

    The kernel runs twice and the second run is timed, so the time does not
    depend on what the interrupted work left in the caches, and the garbage
    collector is held off, so it does not depend on the size of the heap."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def _kernel():
    _COUNTS.clear()
    for i in range(6000):
        key = (i * 7) % 2003
        _COUNTS[key] = _COUNTS.get(key, 0) + 1
    sorted(_COUNTS.values())
    for _ in range(16):
        _MATRIX @ _MATRIX


def scale(*probes):
    """Factor that takes a wall time between (or beside) these probes to
    seconds at the nominal host speed."""
    return NOMINAL_S * len(probes) / sum(probes)


class Sampler:
    """Probes the reference every ``PERIOD_S`` while the ``with`` block
    runs, from a SIGALRM handler in the main thread, so a probe never
    overlaps the work it stands beside. ``probes`` holds the probe times and
    ``spent`` the wall time the handler took, to be taken off the block's.
    """

    def __enter__(self):
        self.probes, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.spent += time.perf_counter() - t0
