"""CI smoke gate: fail when engine throughput regresses.

Re-measures the core-engine workloads (fast variants by default) — raw
scheduler churn and the Figure 6 bus model — and compares throughput
against the committed ``benchmarks/results/BENCH_core_engine.json``
baseline.  Both sides are rates at nominal host speed: each timed
repetition is scaled by yardstick chunks (``benchmarks/e2e/speed.py``)
timed next to it, so a slower or busier host moves the work and the
chunks together and the comparison holds on any box.  A measurement more
than ``--tolerance`` (default 30 %) below the baseline fails the run.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.engine_smoke --fast
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from benchmarks.engine_workloads import (
    FAST_EVENTS,
    FAST_PACKETS,
    FULL_EVENTS,
    FULL_PACKETS,
    bus_throughput,
    scheduler_throughput,
)
from repro.obs import load_bench_json

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parent / "results" / "BENCH_core_engine.json"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help=f"use the reduced workloads ({FAST_EVENTS:,} events, "
        f"{FAST_PACKETS} packets) for quick CI runs",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression before failing (default 0.30)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=BASELINE_PATH,
        help="BENCH_core_engine.json to compare against",
    )
    args = parser.parse_args(argv)

    baseline = {row["workload"]: row for row in load_bench_json(args.baseline)["rows"]}
    n_events = FAST_EVENTS if args.fast else FULL_EVENTS
    n_packets = FAST_PACKETS if args.fast else FULL_PACKETS

    failed = False

    def gate(label: str, stats: dict, reference: float) -> None:
        nonlocal failed
        measured = stats["median"]
        floor = reference * (1.0 - args.tolerance)
        verdict = "ok" if measured >= floor else "REGRESSED"
        failed = failed or measured < floor
        print(
            f"{label:<22} {measured:>12,.0f}/s "
            f"(baseline {reference:,.0f}, floor {floor:,.0f}; "
            f"chunk {stats['chunk_s'] * 1e3:.3f} ms) {verdict}"
        )

    gate(
        "churn",
        scheduler_throughput(n_events),
        baseline["scheduler-churn"]["events_per_second"],
    )
    gate(
        "figure-6 bus",
        bus_throughput(n_packets),
        baseline["figure-6-bus"]["frames_per_second"],
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
