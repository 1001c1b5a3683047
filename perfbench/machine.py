"""Machine-speed correction of wall times on a shared processor.

On a processor shared with other tenants, the same code runs up to ~1.6x
slower for stretches of seconds to minutes.  ``SpeedMeter`` measures that
factor with a fixed reference kernel owned by the benchmark: a loop of
100x100 matrix-vector products, the same kind of work as a Crank-Nicolson
sweep.  The kernel runs right before and right after every timed call and,
while a call runs, every ``PERIOD_S`` seconds from a ``SIGALRM`` handler.

A call's corrected time is its wall time (minus the handler's own time)
times the mean of ``REFERENCE_S / t_ref`` over those samples: the time the
call would have taken at the speed at which the reference kernel takes
``REFERENCE_S``.  Program changes move the corrected time exactly as they
move the wall time; the kernel itself is not part of the program.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 1e-3  # nominal duration of one reference kernel
PERIOD_S = 0.1
_STEPS = 400


class SpeedMeter:
    def __init__(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((100, 100)))
        self._S = np.ascontiguousarray(0.999 * q)
        self.samples = []  # (start time, reference seconds)
        self._handler_s = 0.0
        self._busy = False

    def reference(self):
        """Run the reference kernel once; return and keep its duration."""
        self._busy = True
        y = np.ones(self._S.shape[0])
        t0 = time.perf_counter()
        for _ in range(_STEPS):
            y = self._S @ y
        t1 = time.perf_counter()
        self._busy = False
        self.samples.append((t0, t1 - t0))
        return t1 - t0

    def _tick(self, signum, frame):
        if self._busy:  # the handler interrupted a reference run
            return
        t0 = time.perf_counter()
        self.reference()
        self._handler_s += time.perf_counter() - t0

    @contextmanager
    def sampling(self):
        """Sample the reference kernel periodically while the block runs."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def call(self, fn):
        """Run ``fn``; return ``(result, wall seconds, corrected seconds)``."""
        first = len(self.samples)
        self.reference()
        handler_before = self._handler_s
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0 - (self._handler_s - handler_before)
        self.reference()
        refs = np.array([s for _, s in self.samples[first:]])
        return result, wall, wall * float(np.mean(REFERENCE_S / refs))


class WallClock:
    """Plain wall time, for traced runs and the self-test."""

    samples = ()

    @contextmanager
    def sampling(self):
        yield self

    def call(self, fn):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        return result, wall, wall
