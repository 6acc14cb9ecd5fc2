"""Wire-path concurrency: ops/s and tail latency at 10k clients.

Drives the asyncio front end (:mod:`repro.core.aio`) with 10,000
concurrent simulated client connections — in-loop byte pipes, so the
full wire path runs without consuming file descriptors — once per body
codec (the paper's XML, and the negotiated binary encoding).  The
committed artefact ``benchmarks/results/BENCH_wire_concurrency.json``
records throughput, p50/p99 latency and the binary/XML ratio of the
10k-client runs (host seconds, one run each), plus one smoke-scale row
per codec: the median of five warmed runs at nominal host speed, the
baseline CI re-checks (``python -m benchmarks.wire_smoke --fast``), each
codec against its own row.  ``docs/wire.md`` explains both encodings;
``docs/performance.md`` says how to read the artefact.
"""

from benchmarks.wire_workloads import (
    FULL_CLIENTS,
    FULL_OPS_PER_CLIENT,
    SMOKE_CLIENTS,
    SMOKE_OPS_PER_CLIENT,
    format_rows,
    run_wire_workload,
    wire_faults,
    wire_throughput,
)


def test_smoke_scale_binary_workload(benchmark):
    """The timed unit: a smoke-scale mixed workload on the binary codec."""
    result = benchmark.pedantic(
        lambda: run_wire_workload(
            "binary", clients=SMOKE_CLIENTS, rounds=SMOKE_OPS_PER_CLIENT
        ),
        rounds=3,
        iterations=1,
    )
    assert wire_faults(result) == []


def _smoke_row(codec: str) -> dict:
    stats = wire_throughput(codec)
    for row in stats["rows"]:
        assert wire_faults(row) == [], (codec, wire_faults(row))
    return {
        "workload": "smoke",
        "codec": codec,
        "clients": SMOKE_CLIENTS,
        "ops_per_client_round": SMOKE_OPS_PER_CLIENT,
        "ops_per_second": round(stats["median"]),
        "mean_ops_per_second": round(stats["mean"]),
        "stdev_ops_per_second": round(stats["stdev"]),
        "runs": stats["runs"],
        "chunk_s_median": stats["chunk_s"],
    }


def test_wire_concurrency_artifact(report, bench_json):
    """Measure both codecs at 10k concurrent clients and at the gate's
    smoke scale; commit the artefact."""
    rows = [
        {"workload": "10k-clients", **run_wire_workload(
            codec, clients=FULL_CLIENTS, rounds=FULL_OPS_PER_CLIENT
        )}
        for codec in ("xml", "binary")
    ]
    by_codec = {row["codec"]: row for row in rows}
    for row in rows:
        assert row["concurrent_clients"] == FULL_CLIENTS
        assert wire_faults(row) == [], (row["codec"], wire_faults(row))
    smoke = [_smoke_row(codec) for codec in ("xml", "binary")]
    speedup = (
        by_codec["binary"]["ops_per_second"]
        / by_codec["xml"]["ops_per_second"]
    )
    derived = {
        "binary_speedup_vs_xml": round(speedup, 3),
        "clients": FULL_CLIENTS,
        "ops_per_client_round": FULL_OPS_PER_CLIENT,
    }
    report(
        "wire_concurrency",
        format_rows(rows)
        + f"\nbinary vs xml: {speedup:.2f}x at {FULL_CLIENTS} clients"
        + "".join(
            f"\nsmoke {row['codec']:<6} {row['ops_per_second']:>8,d} ops/s "
            f"at nominal speed (±{row['stdev_ops_per_second']:,d}, "
            f"{SMOKE_CLIENTS} clients, median of {row['runs']})"
            for row in smoke
        ),
    )
    bench_json("wire_concurrency", rows=rows + smoke, derived=derived)
