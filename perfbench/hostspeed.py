"""How fast the host runs Python right now, against the reference host.

The reference host (2 cores, shared) drifts: a fixed pure-Python loop took
0.137 to 0.194 s there, in slow and fast stretches that last from seconds
to minutes, and unchanged code moved 10-20% between runs.  The benchmark
therefore times :func:`reference_work` between rounds and scales each
round's host time by the slowdown it saw, so its timings read as host
seconds at the reference host's usual speed.  The loop exercises what the
simulator leans on -- allocation, a binary heap, small tuples, a dict -- and
touches nothing in ``src/``, so no change to the program can move it.
"""

from __future__ import annotations

import functools
import gc
import heapq
from time import perf_counter
from typing import List

#: Median time of :func:`reference_work` on the reference host (seconds).
REFERENCE_S = 0.06
#: Size of the reference work's working set (lists of three fields).
REFERENCE_NODES = 40_000


@functools.lru_cache(maxsize=None)
def _working_set() -> List[list]:
    """The reference work's few-megabyte working set, built once."""
    return [[index, 0, str(index)] for index in range(REFERENCE_NODES)]


def reference_work() -> int:
    """A fixed heap-and-dict workload over a few megabytes (~50 ms).

    Its working set makes it feel the cache pressure of other tenants the
    way the simulator does; a loop that fits in the first-level cache
    tracked the simulator's speed between processes less closely.
    """
    items = _working_set()
    heap: list = []
    latest: dict = {}
    for step in range(30_000):
        item = items[(step * 7919) % REFERENCE_NODES]
        heapq.heappush(heap, ((step * 104729) % 10007, step, item))
        if len(heap) > 4096:
            key, _, popped = heapq.heappop(heap)
            popped[1] = key
            latest[popped[2]] = key
    return len(latest)


def slowdown() -> float:
    """Host time of the reference work now, over its reference time.

    The cyclic garbage collector is paused meanwhile: its passes would walk
    every live object of the benchmark process, so the loop would time how
    much the program keeps alive rather than the host.
    """
    _working_set()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        reference_work()
        return (perf_counter() - started) / REFERENCE_S
    finally:
        if was_enabled:
            gc.enable()
