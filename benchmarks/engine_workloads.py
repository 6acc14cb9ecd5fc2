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

Measurements discard one warmup run, then report best-of-``repeats`` plus
per-run spread (see :func:`throughput_stats`) so the committed artefact
records how noisy the number was, not just its peak.
"""

from __future__ import annotations

import statistics
import time

from repro.cosim.scenarios import ValidationScenario
from repro.des import Simulator

#: Workload sizes: FULL for the committed artefact, FAST for the CI gate.
FULL_EVENTS = 150_000
FAST_EVENTS = 40_000
FULL_PACKETS = 600
FAST_PACKETS = 60


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


def throughput_stats(run, repeats: int = 3) -> dict:
    """Warmed best-of-``repeats`` with spread: ``run()`` returns
    ``(units, wall_seconds)``; the first (warmup) run is discarded."""
    run()
    rates = []
    for _ in range(repeats):
        units, seconds = run()
        rates.append(units / seconds)
    return {
        "best": max(rates),
        "mean": statistics.fmean(rates),
        "stdev": statistics.stdev(rates) if len(rates) > 1 else 0.0,
        "runs": len(rates),
    }


def scheduler_throughput(n_events: int, repeats: int = 3) -> dict:
    """Churn events/second statistics."""
    return throughput_stats(lambda: scheduler_churn(n_events), repeats)


def scheduler_events_per_second(n_events: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` churn event throughput."""
    return scheduler_throughput(n_events, repeats)["best"]


def bus_throughput(n_packets: int, repeats: int = 3) -> dict:
    """End-to-end frames/second statistics of the Figure 6 model."""
    return throughput_stats(lambda: bus_frames_throughput(n_packets), repeats)


def bus_frames_per_second(n_packets: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` end-to-end frame throughput."""
    return bus_throughput(n_packets, repeats)["best"]
