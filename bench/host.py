"""Host-speed calibration.

On a shared machine the same op can take up to twice as long from one
minute to the next, and process CPU time inflates with wall time, so
neither clock repeats.  The end-to-end times are therefore scaled to a
reference host speed: a fixed kernel of interpreter work like coverball's
(integer Dijkstra over dict adjacency, then Fraction arithmetic) is timed
between ops, and each op's time is multiplied by ``KERNEL_REF_S`` over the
mean of the kernel times that bracket it.  The kernel is part of the
benchmark, so a change to coverball cannot move it.
"""

from __future__ import annotations

import heapq
import random
import time
from fractions import Fraction

# Median kernel time on the reference host (2-vCPU Intel Xeon VM,
# CPython 3.11.7); scaled times read as if measured there.
KERNEL_REF_S = 0.020

_rng = random.Random(1)
_N = 3000
_ADJ: dict[int, list[tuple[int, int]]] = {v: [] for v in range(_N)}
for _v in range(_N):
    for _ in range(3):
        _u, _w = _rng.randrange(_N), _rng.randint(1, 9)
        _ADJ[_v].append((_w, _u))
        _ADJ[_u].append((_w, _v))
_FRACTIONS = [Fraction(_rng.randint(1, 99), _rng.randint(1, 99)) for _ in range(500)]


def _kernel():
    total = 0
    for src in (0, 1):
        dist = {src: 0}
        heap = [(0, src)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for l, u in _ADJ[v]:
                nd = d + l
                if u not in dist or nd < dist[u]:
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        total += sum(dist.values())
    acc = Fraction(0)
    for x in _FRACTIONS:
        acc = (acc + x) / 2
    return total, acc


def kernel_s() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
