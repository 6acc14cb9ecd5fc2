"""The host-speed yardstick that the end-to-end timings are scaled by.

The reference box is a 2-vCPU virtual machine on a shared host.  Other
tenants make every pure-Python instruction slower or faster by up to
two-thirds, switching within a second and drifting over minutes, so a
raw timing says as much about the neighbours as about the code.

:func:`chunk` is a fixed piece of interpreter work.  The benchmark runs
it right next to the work it times, in the same process and at the same
moments, and scales each timing by :data:`NOMINAL_CHUNK_S` over the
chunk's measured time: what the work would have taken on a host where
one chunk takes :data:`NOMINAL_CHUNK_S`.  A change to the code under
test moves the work and not the chunk, so it shows in full; a busier
host moves both and cancels out.

Of the candidates tried (a pure-bytecode loop of attribute, method and
dict operations; a pointer walk over 6 MB of objects; object
allocation; a ``heapq`` priority queue), the priority queue slowed most
nearly in step with the simulations and the server: over 4-6 runs of a
workload, the run medians scaled by it ranged over 3-4 %, the raw ones
over 46-56 % and those scaled by the bytecode loop over 11-17 %.

The chunk is part of the benchmark, not of the program, and must never
change: that would rescale every result.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Iterations of one chunk.
CHUNK_ITERATIONS = 1000

#: Host seconds of one chunk that every scaled timing is expressed at:
#: about what it takes on the reference box's host when it is quiet.
NOMINAL_CHUNK_S = 0.0005


def chunk(iterations: int = CHUNK_ITERATIONS) -> int:
    """The fixed work, a bounded priority queue of timestamped tuples;
    returns a checksum so none of it is dead."""
    queue = []
    total = 0
    for i in range(iterations):
        heapq.heappush(queue, ((i * 7919) % 1009, i, None))
        if len(queue) > 64:
            total += heapq.heappop(queue)[0]
    return total


def chunk_s() -> float:
    """Host seconds of one chunk, with the collector off so the program's
    garbage is not collected on the chunk's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        chunk()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scaled(work_s: float, chunks_s: float, chunks: int) -> float:
    """``work_s`` at the nominal host speed, given ``chunks`` chunks that
    took ``chunks_s`` in all, run interleaved with the work."""
    return work_s * NOMINAL_CHUNK_S * chunks / chunks_s
