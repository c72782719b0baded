"""Host speed, sampled while the benchmark runs, to normalise CPU times.

On a shared VM the same op can take from 1x to 1.7x its CPU time within
minutes, and the host flips between a fast and a slow state within seconds
as other guests load it.  CPU time does not remove that, since the
slow-down is in the instructions themselves.  So the benchmark reports
times at a fixed reference speed: every PERIOD_S of CPU time a
profiling-timer signal runs a fixed stdlib-only kernel (a product of two
sparse polynomials with Fraction coefficients, in the style of the
program's hot path but sharing none of its code), and an interval's CPU
time, less the kernel's own, is scaled by the mean of KERNEL_REF_S /
kernel time over the samples in and around it.  A change to the program
moves its time and not the kernel's; a host that runs everything slower
moves both.

Times are CPU time of the calling thread: while a process-wide CPU timer is
armed, Linux updates the process CPU clock only once per scheduler tick.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

clock = time.thread_time

PERIOD_S = 0.05
# Median kernel time on an idle Intel Xeon VM (2 vCPUs), CPython 3.11.
KERNEL_REF_S = 0.0006
# Samples taken this close (CPU seconds) to an interval also count for it.
MARGIN_S = 0.5
MIN_SAMPLES = 5

_A = {(i, j): Fraction(i + 2 * j + 1, j + 3) for i in range(5) for j in range(4)}
_B = {(i, j): Fraction(3 * i - j, i + 2) for i in range(4) for j in range(4) if (i + j) % 2 == 0}


def kernel() -> int:
    """Fixed work: one sparse polynomial product over Q."""
    out: dict = {}
    for (i, j), a in _A.items():
        for (k, m), b in _B.items():
            key = (i + k, j + m)
            out[key] = out.get(key, 0) + a * b
    return len(out)


class Sampler:
    """Kernel times at regular points of the main thread's CPU time."""

    def __init__(self):
        self.at: list[float] = []  # CPU time at the start of each sample
        self.took: list[float] = []  # kernel CPU seconds of each sample
        self.spent: list[float] = [0.0]  # running total of kernel time
        self._old = None

    def _sample(self, _signum, _frame):
        t0 = clock()
        kernel()
        took = clock() - t0
        self.at.append(t0)
        self.took.append(took)
        self.spent.append(self.spent[-1] + took)

    def start(self):
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._old is not None:
            signal.signal(signal.SIGPROF, self._old)
            self._old = None

    def kernel_time(self, t0: float, t1: float) -> float:
        """Kernel CPU time spent between CPU times t0 and t1."""
        return self.spent[bisect.bisect_left(self.at, t1)] - self.spent[bisect.bisect_left(self.at, t0)]

    def factor(self, t0: float, t1: float) -> float:
        """Mean of KERNEL_REF_S / kernel time over the samples in and around
        [t0, t1].  Each sample stands for an equal slice of CPU time, and
        the host flips between a fast and a slow state within seconds, so
        this is the mean speed over the interval; a median would pick one
        of the two states."""
        lo = bisect.bisect_left(self.at, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.at, t1 + MARGIN_S)
        if hi - lo < MIN_SAMPLES:  # widen to the nearest samples
            mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
            lo = max(0, mid - MIN_SAMPLES // 2 - 1)
            hi = min(len(self.at), lo + MIN_SAMPLES + 1)
        if hi <= lo:
            raise RuntimeError("no host-speed samples")
        return KERNEL_REF_S * statistics.fmean(1.0 / k for k in self.took[lo:hi])

    def summary(self) -> str:
        if not self.took:
            return "not sampled"
        q = statistics.quantiles(self.took, n=10) if len(self.took) > 1 else self.took * 9
        return (f"kernel {len(self.took)} samples, p10/p50/p90 {q[0] * 1e3:.3f}/"
                f"{statistics.median(self.took) * 1e3:.3f}/{q[-1] * 1e3:.3f} ms")

    def normalised(self, t0: float, t1: float) -> float:
        """CPU seconds of the program between t0 and t1, at reference speed."""
        return (t1 - t0 - self.kernel_time(t0, t1)) * self.factor(t0, t1)
