"""Host-speed calibration of the benchmark's timings.

On a shared virtual machine the speed at which the host runs the
benchmark swings by up to 80 % within a minute, in CPU time too (the
other guests share the physical cores and caches), so raw times of the
same code move more than any regression bound.  A fixed kernel in the
library's idiom (pure-Python float arithmetic, and numpy and
numpy.linalg calls on 3x3 complex matrices and short vectors), which no
commit of the library can change, is timed between ops; its CPU time
tracks the host's speed at that moment.  An op's CPU time is scaled by
REFERENCE_S over the median of the samples nearest to it, which
expresses it in seconds of a host that runs the kernel in REFERENCE_S.
"""

import bisect
import math
import statistics
import time

import numpy as np

#: about the median CPU time of one kernel run on the 2-vCPU Intel Xeon
#: virtual machine the benchmark was built on (2.4 ms at its quietest);
#: only sets the scale of the normalised times
REFERENCE_S = 0.004
#: CPU seconds between samples, and kernel runs per sample
INTERVAL_S = 0.2
REPEATS = 3
#: samples whose median scales an op: the nearest before and after it
NEIGHBOURS = 4

_A = np.array([[1.1, 0.2j, 0.3], [0.1, 0.9, 0.2j], [0.3j, 0.1, 1.2]])
_V = np.arange(64) % 5 - 2.0


def kernel() -> float:
    s = 0.0
    for i in range(3000):
        s += math.sqrt(i) * (i % 7)
    M = _A
    for k in range(60):
        M = (M @ _A) / abs(complex(np.trace(M)))
        support = np.nonzero(_V)[0]
        s += complex(np.sum(_V[support] * np.exp((2j * np.pi / 97) * ((support * k) % 97)))).real
        s += abs(np.linalg.det(M)) + np.linalg.svd(M, compute_uv=False)[0] + np.eye(3)[0, 0]
    return s


class Calibration:
    """Samples of the kernel's CPU time, each at its wall-clock midpoint."""

    def __init__(self):
        self.times, self.values = [], []
        self.last_cpu = -math.inf

    def sample(self):
        start = time.perf_counter()
        runs = []
        for _ in range(REPEATS):
            c = time.process_time()
            kernel()
            runs.append(time.process_time() - c)
        self.times.append((start + time.perf_counter()) / 2)
        self.values.append(statistics.median(runs))
        self.last_cpu = time.process_time()

    def maybe_sample(self):
        """Sample when INTERVAL_S of CPU time has passed since the last."""
        if time.process_time() - self.last_cpu >= INTERVAL_S:
            self.sample()

    def scale(self, t: float) -> float:
        """Factor from CPU seconds at wall-clock time t to normalised
        seconds: REFERENCE_S over the median of the NEIGHBOURS samples
        nearest to t (half before, half after where they exist)."""
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.values) - NEIGHBOURS))
        return REFERENCE_S / statistics.median(self.values[lo:lo + NEIGHBOURS])

    def summary(self):
        return {"samples": len(self.values), "median_s": statistics.median(self.values),
                "min_s": min(self.values), "max_s": max(self.values)}
