"""Durations in reference-host seconds.

A shared host slows a single-threaded decode by up to 2x for anything from
a fraction of a second to minutes at a time, so the same decode measured
twice a minute apart can differ by 30-50%.  While a ``HostClock`` is
running, a timer signal interrupts the program every ``INTERVAL_S`` and
runs a fixed probe (small vector-matrix products and dict/tuple/float work,
the mix the decoder spends its time on) and records how long it took.

A call that ran from t0 to t1 is then reported as

    (t1 - t0 - probe time inside it) * PROBE_REF_S / (mean probe duration
                                                     within WINDOW_S of it)

which is its duration on a host where the probe takes ``PROBE_REF_S``.
The probe is code of the benchmark, not of the program, so a change to the
program moves the numerator only.  Python runs signal handlers between
bytecodes of the main thread, so a probe never interrupts a numpy call
half-way and never touches the program's state.
"""

import bisect
import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
WINDOW_S = 0.1
# The probe's duration on the reference host, a 2-vCPU Intel Xeon VM
# (Python 3.11, NumPy 2.4) in its fast phase.
PROBE_REF_S = 220e-6

_rng = np.random.default_rng(0)
_A = _rng.uniform(-1.0, 1.0, (8, 64)).astype(np.float32)
_B = _rng.uniform(-1.0, 1.0, (64, 16)).astype(np.float32)


def probe():
    out = np.empty((8, 16), dtype=np.float32)
    for _ in range(10):
        for i in range(8):
            out[i] = _A[i] @ _B
        acc = {}
        for j in range(20):
            acc[(j, j + 1)] = math.log1p(j) + acc.get((j - 1, j), 0.0)


class HostClock:
    """Context manager that samples the probe while it is open."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        probe()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.starts:
            self._sample(None, None)
        return False

    def seconds(self, t0, t1):
        """Reference-host seconds of a call that ran from t0 to t1.

        Read after the clock has closed, so that probes taken just after
        the call count toward its window.
        """
        inside = slice(bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1))
        raw = (t1 - t0) - sum(self.durations[inside])
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:  # no probe close by: use the nearest one
            lo = max(0, min(lo, len(self.starts)) - 1)
            hi = lo + 1
        return raw * PROBE_REF_S / statistics.fmean(self.durations[lo:hi])
