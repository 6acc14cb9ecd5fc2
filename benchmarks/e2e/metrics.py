"""Metric names, units and directions, and the run environment record.

``BENCHMARK.json`` at the repository root carries the same lists plus
the regression bounds; ``test_harness.py`` checks that the two agree.
"""

from __future__ import annotations

import os
import pathlib
import platform

from benchmarks.e2e.layers import LAYERS, SRC_ROOT

ROOT = SRC_ROOT.parent

WORKLOADS = ("table4", "fullstack_bitlevel", "serve_read_binary", "serve_churn_xml")

#: ``(name, unit, better)``: measured with tracing off, on every workload.
#: The two timings are scaled to the nominal host speed (``speed.py``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: ``(name, unit, better)``: from the traced run, on every workload; a
#: layer that a workload never reaches reads 0.
PER_LAYER = tuple(
    (f"{layer}.self_share", "fraction", "lower") for layer in LAYERS
) + (
    ("des.events", "count", "lower"),
    ("des.ns_per_event", "ns", "lower"),
    ("tpwire.frames", "count", "lower"),
    ("tpwire.us_per_frame", "us", "lower"),
    ("hw.self_s", "s", "lower"),
    ("model.table4_err_pct_max", "%", "lower"),
    ("codec.us_per_op", "us", "lower"),
    ("bytes.in_per_op", "B", "lower"),
    ("bytes.out_per_op", "B", "lower"),
    ("space.us_per_op", "us", "lower"),
    ("space.hit_ratio", "fraction", "higher"),
    ("framing.frames_per_read", "count", "higher"),
    ("aio.us_per_op", "us", "lower"),
    ("loop.us_per_op", "us", "lower"),
    ("server.requests", "count", "higher"),
    ("server.handle_us_p50", "us", "lower"),
    ("server.handle_us_p99", "us", "lower"),
    ("request.wait_ms_p50", "ms", "lower"),
    ("request.wait_ms_p99", "ms", "lower"),
    ("request.reply_ms_p50", "ms", "lower"),
    ("runtime.gc_gen2", "count", "lower"),
    ("runtime.gc_pause_ms_max", "ms", "lower"),
    ("runtime.gc_pause_ms_total", "ms", "lower"),
    ("server.rss_growth_kb_per_kop", "kB/kop", "lower"),
    ("knee_ops_s", "ops/s", "higher"),
    ("p50_ms", "ms", "lower"),
    ("p90_ms", "ms", "lower"),
    ("p99_ms", "ms", "lower"),
    ("p999_ms", "ms", "lower"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.prep_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.attributed_ratio", "fraction", "higher"),
    ("trace.samples", "count", "higher"),
    ("trace.cpu_s", "s", "lower"),
)


def units(trace: bool) -> dict[str, str]:
    return {name: unit for name, unit, _ in (PER_LAYER if trace else END_TO_END)}


def result(correct: bool, attempted: int, failed: int, values: dict, trace: bool) -> dict:
    """The result object: every metric of the run's kind, with its unit."""
    table = units(trace)
    missing = set(table) - set(values)
    extra = set(values) - set(table)
    if missing or extra:
        raise ValueError(f"metrics mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in table.items()
        },
    }


def child_env() -> dict:
    """Environment for a child interpreter that imports ``repro`` and this
    benchmark from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_ROOT), str(ROOT)])
    return env


def results_dir() -> pathlib.Path:
    """Where traced runs leave their JSONL files (ignored by git)."""
    return ROOT / "benchmarks" / "results" / "e2e"


def environment(seed: int) -> dict:
    """What a result needs to be compared: machine, interpreter and seed."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "seed": seed,
    }
