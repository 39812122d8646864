"""Machine-speed calibration: every reported time is scaled to one speed.

The benchmark runs on shared hosts whose speed swings by a third or more
within seconds, and drifts over minutes, while the program's work stays
the same.  A raw wall time therefore says as much about the host's
neighbours as about the program.  :class:`SpeedGauge` removes that part:
it times a fixed pure-Python reference kernel (a heap-based Dijkstra on a
seeded random graph, independent of the ``repro`` package) between the
program's calls, never inside a timed call, every :data:`CADENCE_S` of
wall time.  A time measured around ``t`` is then multiplied by
``NOMINAL_MS / m``, where ``m`` is the median of the :data:`WINDOW`
reference samples nearest to ``t``.  The result reads in milliseconds
(or seconds) on a host where the reference kernel takes
:data:`NOMINAL_MS`; the run also prints the raw wall figures.

A change to the program moves the scaled figures as it moves raw ones,
because the reference kernel does not run any of the program's code.
"""

from __future__ import annotations

import bisect
import heapq
import random
import statistics
import time
from typing import List, Tuple

perf_counter = time.perf_counter

#: Reference-kernel time, in ms, of the nominal host the figures are scaled to.
NOMINAL_MS = 0.5

#: Minimum wall time between two reference samples taken by :meth:`SpeedGauge.tick`.
CADENCE_S = 0.02

#: Reference samples whose median gives the host speed at a point in time.
WINDOW = 16

_GRAPH_NODES = 120
_GRAPH_DEGREE = 3
_GRAPH_SEED = 20240


def _reference_graph() -> List[List[Tuple[int, float]]]:
    rng = random.Random(_GRAPH_SEED)
    adjacency: List[List[Tuple[int, float]]] = [[] for _ in range(_GRAPH_NODES)]
    for u in range(_GRAPH_NODES):
        for _ in range(_GRAPH_DEGREE):
            v = rng.randrange(_GRAPH_NODES)
            weight = rng.random()
            adjacency[u].append((v, weight))
            adjacency[v].append((u, weight))
    return adjacency


def _reference_kernel(adjacency: List[List[Tuple[int, float]]]) -> float:
    """Shortest-path distances from two sources; returns a checksum."""
    total = 0.0
    for source in (0, _GRAPH_NODES // 2):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, weight in adjacency[u]:
                nd = d + weight
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


class SpeedGauge:
    """Reference samples over a run, and times scaled by them."""

    def __init__(self) -> None:
        self._graph = _reference_graph()
        self._checksum = _reference_kernel(self._graph)
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.samples_ms: List[float] = []
        self._due = 0.0

    def sample(self) -> None:
        """Time the reference kernel once."""
        t0 = perf_counter()
        checksum = _reference_kernel(self._graph)
        t1 = perf_counter()
        if checksum != self._checksum:
            raise RuntimeError("reference kernel gave a different result")
        self.starts.append(t0)
        self.ends.append(t1)
        self.samples_ms.append((t1 - t0) * 1000.0)
        self._due = t1 + CADENCE_S

    def tick(self) -> None:
        """Take a sample if :data:`CADENCE_S` has passed since the last one."""
        if perf_counter() >= self._due:
            self.sample()

    def factor_at(self, t: float) -> float:
        """``NOMINAL_MS`` over the host's reference time around ``t``."""
        count = len(self.starts)
        if not count:
            raise RuntimeError("no reference samples taken")
        lo = bisect.bisect_left(self.starts, t) - WINDOW // 2
        lo = max(0, min(lo, count - WINDOW))
        return NOMINAL_MS / statistics.median(self.samples_ms[lo : lo + WINDOW])

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time from ``t0`` to ``t1`` at nominal speed.

        Reference samples taken inside the interval are left out of it;
        each stretch between them is scaled by the speed at its middle.
        """
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        total = 0.0
        cursor = t0
        for k in range(first, last):
            total += (self.starts[k] - cursor) * self.factor_at((cursor + self.starts[k]) / 2)
            cursor = self.ends[k]
        return total + (t1 - cursor) * self.factor_at((cursor + t1) / 2)

    def sampled_s(self, t0: float, t1: float) -> float:
        """Wall time spent in reference samples between ``t0`` and ``t1``."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_right(self.ends, t1)
        return sum(self.ends[k] - self.starts[k] for k in range(first, last))
