"""Core-engine throughput: the perf baseline every DES change answers to.

Raw events/second of the pending-event queue and run loop, plus
end-to-end frames/second of the packet-level TpWIRE model on the
Figure 6 topology.  The numbers land in
``benchmarks/results/BENCH_core_engine.json`` as rates at nominal host
speed (scaled by the ``benchmarks/e2e/speed.py`` yardstick), with the
median yardstick chunk they were scaled by; CI re-measures a fast
variant of the same workloads (``python -m benchmarks.engine_smoke``) and
fails if throughput regresses more than 30 % against that committed
baseline.  ``docs/performance.md`` explains the fast path these numbers
track and how to read the artefact.
"""

from benchmarks.engine_workloads import (
    FULL_EVENTS,
    FULL_PACKETS,
    bus_frames_throughput,
    bus_throughput,
    scheduler_churn,
    scheduler_throughput,
)


def test_scheduler_raw_event_throughput(benchmark):
    fired, _ = benchmark.pedantic(
        lambda: scheduler_churn(FULL_EVENTS), rounds=3, iterations=1
    )
    # The 16 seeded handlers may each slip one extra event past the stop
    # condition before the run drains.
    assert FULL_EVENTS <= fired <= FULL_EVENTS + 16


def test_bus_frame_throughput(benchmark):
    frames, _ = benchmark.pedantic(
        lambda: bus_frames_throughput(FULL_PACKETS), rounds=3, iterations=1
    )
    assert frames > 0


def test_core_engine_baseline_artifact(report, bench_json):
    """Measure both workloads and commit them as the engine baseline
    artefact (the numbers the CI smoke gate compares against)."""
    # Median of 5 (vs the default 3) for the committed artefact: each run
    # is a sub-second window on shared hardware, and the extra samples
    # steady the median.
    churn = scheduler_throughput(FULL_EVENTS, repeats=5)
    churn_row = {
        "workload": "scheduler-churn",
        "scheduler": "heap",
        "events": FULL_EVENTS,
        "events_per_second": round(churn["median"]),
        "mean_events_per_second": round(churn["mean"]),
        "stdev_events_per_second": round(churn["stdev"]),
        "runs": churn["runs"],
        "chunk_s_median": churn["chunk_s"],
    }
    bus = bus_throughput(FULL_PACKETS, repeats=5)
    bus_row = {
        "workload": "figure-6-bus",
        "scheduler": "heap",
        "packets": FULL_PACKETS,
        "frames_per_second": round(bus["median"]),
        "mean_frames_per_second": round(bus["mean"]),
        "stdev_frames_per_second": round(bus["stdev"]),
        "runs": bus["runs"],
        "chunk_s_median": bus["chunk_s"],
    }
    derived = {
        "bus_frames_per_second": bus_row["frames_per_second"],
        "bus_packets": FULL_PACKETS,
    }
    lines = [
        "Core-engine throughput (warmed, median of 5, at nominal host speed):",
        f"  churn {churn_row['events_per_second']:>11,d} events/s "
        f"(±{churn_row['stdev_events_per_second']:,d})",
        f"  fig-6 {bus_row['frames_per_second']:>11,d} frames/s "
        f"(±{bus_row['stdev_frames_per_second']:,d}, {FULL_PACKETS} packets)",
    ]
    report("core_engine", "\n".join(lines))
    bench_json("core_engine", rows=[churn_row, bus_row], derived=derived)
    # Sanity floors: the committed artefact sits well above these, so
    # tripping one means the fast path broke outright rather than the
    # runner being slow.
    assert churn_row["events_per_second"] > 200_000
    assert bus_row["frames_per_second"] > 20_000
