"""Core-engine throughput workloads.

Shared by ``bench_core_engine.py`` (the pytest-benchmark suite that emits
``BENCH_core_engine.json``) and ``engine_smoke.py`` (the CI regression
gate), so both measure exactly the same thing:

* ``scheduler_churn`` — raw event throughput of the pending-event queue
  and run loop: a small population of self-rescheduling handlers, the
  workload shape the TpWIRE model produces (shallow queue, short-horizon
  timers).
* ``bus_frames_throughput`` — end-to-end frames/second of the packet-level
  TpWIRE model on the Figure 6 validation topology (master + CBR slave +
  receiver slave), i.e. the whole hot path: scheduler, events, timing
  tables, bus state machine, master transaction engine.

Measurements discard one warmup run, then report the median of
``repeats`` plus per-run spread (see :func:`throughput_stats`) so the
committed artefact records how noisy the number was.  Every rate is
expressed at nominal host speed: yardstick chunks
(``benchmarks/e2e/speed.py``) are timed next to each repetition and
scale its seconds, so the gate compares code, not neighbours.
"""

from __future__ import annotations

import statistics
import time

from benchmarks.e2e import speed
from repro.cosim.scenarios import ValidationScenario
from repro.des import Simulator

#: Workload sizes: FULL for the committed artefact, FAST for the CI gate.
FULL_EVENTS = 150_000
FAST_EVENTS = 40_000
FULL_PACKETS = 600
FAST_PACKETS = 60

#: Yardstick chunks timed on each side of every repetition.
CHUNKS_PER_SIDE = 5


def scheduler_churn(n_events: int) -> tuple[int, float]:
    """Drain ``n_events`` self-rescheduling timers; returns
    ``(events_fired, wall_seconds)``.

    The handler body is deliberately lean — one RNG draw and one
    ``call_after`` — so the scheduler's push/pop dominates what the
    clock sees instead of workload bookkeeping.
    """
    sim = Simulator()
    rand = sim.stream("bench-core-engine").random
    call_after = sim.call_after
    count = 0

    def handler():
        nonlocal count
        count += 1
        if count < n_events:
            call_after(rand() * 0.02, handler)

    # Seed with a small population so the queue stays shallow, as it does
    # in the bus model (one cycle in flight plus timers).
    for _ in range(16):
        call_after(rand() * 0.02, handler)
    started = time.perf_counter()
    sim.run()
    return count, time.perf_counter() - started


def bus_frames_throughput(n_packets: int) -> tuple[int, float]:
    """Run the Figure 6 packet-level scenario for ``n_packets`` seconds of
    CBR traffic; returns ``(frames_exchanged, wall_seconds)``."""
    scenario = ValidationScenario(bit_level=False)
    started = time.perf_counter()
    result = scenario.run(n_packets)
    seconds = time.perf_counter() - started
    return result.total_frames, seconds


def _chunks() -> list[float]:
    return [speed.chunk_s() for _ in range(CHUNKS_PER_SIDE)]


def throughput_stats(run, repeats: int = 3) -> dict:
    """Warmed median of ``repeats`` with spread, at nominal host speed.

    ``run()`` returns ``(units, wall_seconds)``; the first (warmup) run
    is discarded.  Each repetition's seconds are scaled by the median
    of the yardstick chunks timed on both sides of it (the median, so
    one preempted chunk does not inflate the rate); ``chunk_s`` is the
    median over every chunk of the measurement.  The headline is the
    median rate, as in the end-to-end harness: once scaled, a run errs
    either way, and the best would pick the run whose chunks the
    neighbours slowed most.
    """
    run()
    rates = []
    chunks = []
    for _ in range(repeats):
        before = _chunks()
        units, seconds = run()
        around = before + _chunks()
        chunks += around
        scaled = speed.scaled(seconds, statistics.median(around), 1)
        rates.append(units / scaled)
    return {
        "median": statistics.median(rates),
        "mean": statistics.fmean(rates),
        "stdev": statistics.stdev(rates) if len(rates) > 1 else 0.0,
        "runs": len(rates),
        "chunk_s": statistics.median(chunks),
    }


def scheduler_throughput(n_events: int, repeats: int = 3) -> dict:
    """Churn events/second statistics."""
    return throughput_stats(lambda: scheduler_churn(n_events), repeats)


def bus_throughput(n_packets: int, repeats: int = 3) -> dict:
    """End-to-end frames/second statistics of the Figure 6 model."""
    return throughput_stats(lambda: bus_frames_throughput(n_packets), repeats)
