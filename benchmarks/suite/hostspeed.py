"""How fast this host runs right now, from a fixed reference computation.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent over minutes, while samples taken close together on one
CPU agree. The workloads therefore also time a fixed kernel between
their plans or jobs, on the CPU those run on, and report their times
scaled to a host on which that kernel takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / kernel time measured next to it

The kernel mixes what the planner spends its time on: interpreted
graph search (heap, lists, tuples, floats) and NumPy array
relaxations and sorts. It imports nothing from ``repro``, so a change
to the program moves the reported times exactly as it moves the
measured ones; only the host's speed cancels. The garbage collector
is off while the kernel runs, so objects the program holds alive
cannot slow the kernel down.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List

import numpy as np

#: The kernel's median time on this kind of host when unloaded (2-vCPU
#: KVM guest, Xeon family 6 model 143, Python 3.11, NumPy 2.4).
REFERENCE_S = 0.015

_NODES = 6000
_DEGREE = 4
_MATRIX = 128
_VALUES = 200_000


def scale(kernel_s: float) -> float:
    """Measured seconds times this are reference-host seconds."""
    return REFERENCE_S / kernel_s


class HostSpeed:
    """Times the reference kernel; keeps every sample for the record."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2003)
        heads = rng.integers(0, _NODES, size=(_NODES, _DEGREE)).tolist()
        weights = rng.random((_NODES, _DEGREE)).tolist()
        self._adjacency = [list(zip(h, w)) for h, w in zip(heads, weights)]
        self._matrix = rng.random((_MATRIX, _MATRIX))
        self._values = rng.random(_VALUES)
        self.samples: List[float] = []

    def _kernel(self) -> float:
        dist = [float("inf")] * _NODES
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in self._adjacency[u]:
                if d + w < dist[v]:
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
        m = self._matrix.copy()
        for k in range(_MATRIX):
            np.minimum(m, m[:, k, None] + m[None, k, :], out=m)
        return max(dist) + float(m.sum()) + float(np.sort(self._values)[_VALUES // 2])

    def sample(self, n: int) -> List[float]:
        """Time the kernel ``n`` times on whatever CPU this process is on."""
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(n):
                start = time.perf_counter()
                self._kernel()
                times.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.extend(times)
        return times
