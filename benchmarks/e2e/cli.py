"""Command line of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload table4 --seed 3 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --trace 1             # per-layer numbers
    python3 benchmarks/e2e/run.py --fast                # correctness only, under 20 s
    python3 benchmarks/e2e/run.py --calibrate 5         # run-to-run spread vs bounds

``PYTHONPATH=src python -m benchmarks.e2e`` takes the same options.  With
``--workload`` the first line of standard output records the machine,
interpreter and seed, and the last is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from benchmarks.e2e import metrics, serve, sims, stats
from benchmarks.e2e.metrics import ROOT, WORKLOADS, child_env

#: ``run_seconds`` of ``BENCHMARK.json``: how long one run measures.
DEFAULT_SECONDS = 20.0


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="Paper-reproduction wall time and TCP serving capacity and latency.",
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, nargs="?", const=1,
                        help="1 (or the bare flag): per-layer metrics from a traced run")
    parser.add_argument("--fast", action="store_true",
                        help="every workload at reduced size, correctness only")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="run each workload N times and report the spread")
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, fast: bool):
    """Run one workload in this process; returns ``(result, detail)``."""
    module = sims if workload in sims.CELLS else serve
    correct, attempted, failed, values, detail = module.run(
        workload, seed, seconds, trace, fast
    )
    return metrics.result(correct, attempted, failed, values, trace), detail


def format_result(workload: str, result: dict) -> str:
    lines = [f"{workload}: correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']}"]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<30} {metric['value']:>14.6g} {metric['unit']}")
    return "\n".join(lines)


def write_trace(workload: str, seed: int, result: dict, detail: dict) -> str:
    """Spans and profile of a traced run, one JSON object per line."""
    directory = metrics.results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"trace_{workload}.jsonl"
    head = {
        "kind": "run", "workload": workload, "env": metrics.environment(seed),
        "metrics": result["metrics"], "profile": detail.get("profile"),
    }
    with open(path, "w", encoding="utf-8") as out:
        out.write(json.dumps(head) + "\n")
        for record in detail.get("timeline", ()):
            out.write(json.dumps(record) + "\n")
    return str(path)


def main_one(args) -> int:
    print(json.dumps({"env": metrics.environment(args.seed), "workload": args.workload}))
    result, detail = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.fast
    )
    print(format_result(args.workload, result))
    if args.trace:
        print(f"  trace written to {write_trace(args.workload, args.seed, result, detail)}")
    else:
        print("  detail: " + json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def child_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``--workload`` run in a fresh interpreter; its result object."""
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed nothing:\n{done.stderr}")
    result = json.loads(lines[-1])
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        result["correct"] = False
    return result


def main_all(args) -> int:
    """Every workload, each in its own process so peak RSS stays its own."""
    env = metrics.environment(args.seed)
    print(json.dumps({"env": env}))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        started = time.perf_counter()
        result = child_run(workload, args.seed, args.seconds, args.trace)
        print(format_result(workload, result))
        print(f"  ({time.perf_counter() - started:.1f} s)", flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main_fast(args) -> int:
    """All four workloads at reduced size: correctness only, no gating."""
    ok = True
    for workload in WORKLOADS:
        started = time.perf_counter()
        result, _detail = run_workload(workload, args.seed, args.seconds, False, True)
        ok = ok and result["correct"]
        print(f"{workload:<20} {'ok' if result['correct'] else 'FAIL':<5}"
              f" attempted={result['attempted']} failed={result['failed']}"
              f" ({time.perf_counter() - started:.1f} s)", flush=True)
    return 0 if ok else 1


def bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}


def main_calibrate(args) -> int:
    """Each workload ``N`` times on seeds 1..N.

    A metric is too wide when its interquartile range exceeds a third of
    its bound.  ``setup_s`` is reported but not judged: set-up is
    compared only by its median.
    """
    limits = bounds()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    print(json.dumps({"env": metrics.environment(args.seed), "runs": args.calibrate}))
    print(f"{'workload':<20} {'metric':<12} {'unit':<6} {'median':>12} "
          f"{'range/med':>9} {'iqr/med':>8} {'bound':>6}  verdict")
    ok = True
    for workload in workloads:
        runs = [child_run(workload, seed, args.seconds, 0)
                for seed in range(1, args.calibrate + 1)]
        ok = ok and all(r["correct"] for r in runs)
        for name, unit, _better in metrics.END_TO_END:
            spread = stats.spreads([r["metrics"][name]["value"] for r in runs])
            within = name == "setup_s" or spread["iqr_over_median"] <= limits[name] / 3
            ok = ok and within
            print(f"{workload:<20} {name:<12} {unit:<6} {spread['median']:>12.6g} "
                  f"{spread['range_over_median']:>9.3f} {spread['iqr_over_median']:>8.3f} "
                  f"{limits[name]:>6.2f}  {'ok' if within else 'WIDE'}", flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.calibrate:
        return main_calibrate(args)
    if args.fast:
        return main_fast(args)
    if args.workload:
        return main_one(args)
    return main_all(args)
