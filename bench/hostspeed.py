"""Host-speed correction for operation times.

The shared virtual machines this benchmark runs on change speed in phases
of seconds to minutes: a fixed interpreter loop runs up to 1.6 times slower
in a slow phase than in a fast one, in CPU time as much as in wall time.
Raw wall times of two runs of the same program therefore differ by the share
of slow phases each run happened to see.

``SpeedProbe`` times a fixed reference kernel every ``PERIOD_S`` from a
``SIGALRM`` handler, in the measuring thread itself, so the kernel runs on
the same core under the same contention as the operations around it.  An
operation's corrected time is its wall time, less the time spent in the
handler during it, scaled by ``NOMINAL_S`` over the mean kernel time sampled
from one period before it starts to one period after it ends.  Corrected
times read as milliseconds on a host where the kernel takes ``NOMINAL_S``.
The kernel is part of the benchmark, not of the program, so a change to the
program cannot move it.
"""

import contextlib
import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
NOMINAL_S = 1e-3  # corrected times are scaled to a host where one kernel call takes this long
_NODES = np.linspace(0.1, 1.0, 16) + 0.3j


def reference_kernel() -> complex:
    """Scalar complex arithmetic and 16-point numpy evaluations, like the quadrature's inner loop."""
    total = 0j
    for k in range(120):
        z = complex(k * 0.01, 0.5)
        total += z * z / (1 + z) + math.exp(-k * 1e-3)
        total += complex(np.sum(np.exp(-_NODES * z)))
    return total


class SpeedProbe:
    """Samples the reference kernel's duration while ``running()`` is active."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list = []
        self.durations: list = []
        self.spent_s = 0.0  # total time inside the handler

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        reference_kernel()
        took = perf_counter() - t0
        self.starts.append(t0)
        self.durations.append(took)
        self.spent_s += took

    @contextlib.contextmanager
    def running(self):
        for _ in range(20):  # warm the kernel's code paths before the first sample counts
            reference_kernel()
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def corrected(self, t0: float, t1: float, probe_s: float) -> float:
        """Time of an operation that ran from ``t0`` to ``t1`` and spent ``probe_s`` in the handler."""
        lo = bisect_left(self.starts, t0 - self.period_s)
        hi = bisect_right(self.starts, t1 + self.period_s)
        window = self.durations[lo:hi] or self.durations[max(lo - 1, 0) : lo + 1]
        return (t1 - t0 - probe_s) * NOMINAL_S * len(window) / sum(window)

    def median_kernel_s(self) -> float:
        return float(np.median(self.durations))
