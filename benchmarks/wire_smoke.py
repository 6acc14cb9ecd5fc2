"""CI smoke gate: the asyncio wire path holds up under concurrency.

Runs the mixed wire workload of :mod:`benchmarks.wire_workloads` at
smoke scale for both body codecs and fails when

* any run errors, trips a protocol error or slow-consumer close, leaves
  residue in the space or dispatches a request that was not an
  operation, or
* either codec's throughput falls more than 30 % below its smoke-scale
  row in the committed
  ``benchmarks/results/BENCH_wire_concurrency.json``.

Both sides are rates at nominal host speed: each timed repetition is
scaled by yardstick chunks (``benchmarks/e2e/speed.py``) timed next to
it, so a slower or busier host moves the work and the chunks together.
Each codec is gated against its own row, not against the other codec's
fresh run, so a faster XML encoder cannot fail the binary codec.

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.wire_smoke --fast
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from benchmarks.wire_workloads import (
    SMOKE_CLIENTS,
    SMOKE_OPS_PER_CLIENT,
    format_rows,
    wire_faults,
    wire_throughput,
)
from repro.obs import load_bench_json

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parent / "results" / "BENCH_wire_concurrency.json"
)

#: Allowed fractional regression against the baseline row.
TOLERANCE = 0.30


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast",
        action="store_true",
        help=f"smoke scale ({SMOKE_CLIENTS} clients) instead of 1000",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=None,
        help="override the concurrent client count",
    )
    args = parser.parse_args(argv)
    clients = args.clients or (SMOKE_CLIENTS if args.fast else 1000)
    baseline = {
        row["codec"]: row
        for row in load_bench_json(BASELINE_PATH)["rows"]
        if row.get("workload") == "smoke"
    }

    failed = False
    rows = []
    for codec in ("xml", "binary"):
        stats = wire_throughput(codec, clients=clients, rounds=SMOKE_OPS_PER_CLIENT)
        rows += stats["rows"][1:]
        for row in stats["rows"]:
            faults = wire_faults(row)
            if faults:
                failed = True
                print(f"{codec}: FAILED ({', '.join(faults)})")
        reference = baseline[codec]["ops_per_second"]
        floor = reference * (1.0 - TOLERANCE)
        measured = stats["median"]
        verdict = "ok" if measured >= floor else "REGRESSED"
        failed = failed or measured < floor
        print(
            f"{codec:<8} {measured:>9,.0f} ops/s at nominal speed "
            f"(baseline {reference:,.0f} at {baseline[codec]['clients']} clients, "
            f"floor {floor:,.0f}; chunk {stats['chunk_s'] * 1e3:.3f} ms) {verdict}"
        )

    print("timed runs (host seconds):")
    print(format_rows(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
