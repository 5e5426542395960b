"""A fixed reference kernel that rates the host's current speed.

The shared machines the benchmark runs on change speed by 20–40 % over
minutes, as other tenants load them, and a run's wall times move with
them. The kernel below mixes what the library spends its time on
(dict and list work per item in Python, and short NumPy vector ops in a
loop), so it slows down with the library. The benchmark times it next
to every operation and every set-up and reports each time scaled to a
host on which the kernel takes REF_S seconds:

    scaled = measured * REF_S / kernel time measured alongside

Scaled times keep the unit s and read close to wall times on the host
REF_S was taken on. The kernel is part of the benchmark, so a change to
the library cannot move it; the raw times go into the run record too.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time over 80 runs on an Intel Xeon VM with 2 vCPUs
# (Python 3.11, NumPy 2.4), rounded; the runs ranged from 8.0 to 11.7 ms.
REF_S = 0.010
REPEATS = 5


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20171010)
        self.values = rng.integers(0, 1000, 20000).tolist()
        self.vec = np.arange(5000.0)

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        for v in self.values:
            counts[v] = counts.get(v, 0) + 1
        sorted(self.values)
        a = self.vec
        for _ in range(300):
            a = np.sqrt(a * 0.5 + 1.0)
            a[::7] += 1.0
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median of REPEATS kernel times, in seconds."""
        return statistics.median(self._kernel() for _ in range(REPEATS))


def scaled(seconds: float, kernel_s: float) -> float:
    return seconds * REF_S / kernel_s
