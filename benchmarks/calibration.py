"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the speed of one core drifts by tens
of percent over minutes, and every pure-Python loop slows by about the same
factor.  A fixed kernel owned by the benchmark (breadth-first searches with
dict, deque and frozenset work, the operations the library itself is made
of) is timed next to the workload, and each measured time is scaled by
``REFERENCE_MS / kernel time``: the time the work would take on a machine
where the kernel takes exactly ``REFERENCE_MS``.  Raw times are kept beside
the scaled ones in every result file.

The kernel runs with the garbage collector paused, so objects the program
keeps alive do not change its time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from collections import deque

REFERENCE_MS = 1.0
# re-time the kernel once this much workload time has passed since the last timing
INTERVAL_MS = 50.0

_ORDER = 200
_rng = random.Random("strongarc-benchmark-calibration")
_ADJ = tuple(tuple(sorted({_rng.randrange(_ORDER) for _ in range(6)})) for _ in range(_ORDER))


def kernel_ms() -> float:
    """Milliseconds one run of the calibration kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        total = 0
        for source in range(0, _ORDER, 20):
            dist = {source: 0}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v in _ADJ[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            total += len(frozenset(dist.items()))
        return (time.perf_counter_ns() - start) / 1e6
    finally:
        if enabled:
            gc.enable()


def scale_now() -> float:
    """Factor that turns times measured now into reference-speed times (median of five kernels)."""
    return REFERENCE_MS / statistics.median(kernel_ms() for _ in range(5))
