"""Simulation workloads: the Table 4 grid and its baseline cell over the
bit-accurate PHY, run in this process.

A *pass* builds and runs every cell of the workload once, in an order
drawn from the seed.  Each cell runs in short slices of simulated time
with a yardstick chunk (``speed.py``) after every slice, so the pass's
host time can be scaled to the nominal host speed; the median scaled
pass is what the end-to-end metrics report.  Every cell's simulated
statistics are compared exactly with ``reference.json``: a speed-up of
the simulator must leave them bit-identical.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import subprocess
import sys
import time

from benchmarks.e2e import layers, speed, stats
from benchmarks.e2e.metrics import ROOT, child_env
from repro.cosim import CaseStudyConfig, CaseStudyScenario
from repro.des import HeapScheduler

REFERENCE = ROOT / "benchmarks" / "e2e" / "reference.json"

#: The paper's Table 4 (lease 160 s), seconds; ``None`` is "Out of Time".
PAPER_TABLE4 = {
    (1, 0.0): 140.0, (1, 0.3): 151.0, (1, 1.0): None,
    (2, 0.0): 116.0, (2, 0.3): 122.0, (2, 1.0): 129.0,
}

#: ``name -> (wires, cbr B/s, bit_level)`` of every cell of each workload.
CELLS = {
    "table4": {
        f"w{wires}_cbr{cbr}": (wires, cbr, False)
        for wires in (1, 2)
        for cbr in (0.0, 0.3, 1.0)
    },
    "fullstack_bitlevel": {"w1_cbr0.0_bitlevel": (1, 0.0, True)},
}

#: Warm-up passes before timing (the bit-level pass is long enough alone).
WARMUP_PASSES = {"table4": 1, "fullstack_bitlevel": 0}

#: Simulated seconds per timed slice: 5-10 ms of host time each.
SLICE_S = {"table4": 10.0, "fullstack_bitlevel": 0.25}

#: Simulated space operations per cell: the client's write and its take.
OPS_PER_CELL = 2

MAX_SIM_TIME = 4000.0

#: Fresh-interpreter set-up probes per run, and yardstick chunks run on
#: each side of one probe's timed part.
SETUP_PROBES = 5
SETUP_CHUNKS = 8

#: Run in a fresh interpreter to time set-up: import, then build every
#: cell, between two rounds of yardstick chunks.
SETUP_PROBE = (
    "import sys, time\n"
    "from benchmarks.e2e import speed\n"
    "chunks = [speed.chunk_s() for _ in range(int(sys.argv[2]))]\n"
    "started = time.perf_counter()\n"
    "from benchmarks.e2e import sims\n"
    "sims.build(sys.argv[1])\n"
    "took = time.perf_counter() - started\n"
    "chunks += [speed.chunk_s() for _ in range(int(sys.argv[2]))]\n"
    "print(took, sum(chunks), len(chunks))\n"
)


class CountingHeap(HeapScheduler):
    """The default heap, counting every event it hands to the run loop."""

    def __init__(self):
        super().__init__()
        self.events = 0

    def pop_entry(self):
        entry = super().pop_entry()
        if entry is not None:
            self.events += 1
        return entry


def build(workload: str, names=None, scheduler_factory=None) -> dict:
    """``name -> CaseStudyScenario`` for the workload's cells."""
    built = {}
    for name in names or CELLS[workload]:
        wires, cbr, bit_level = CELLS[workload][name]
        config = CaseStudyConfig(
            wires=wires, cbr_rate_bytes_per_s=cbr, bit_level=bit_level,
            scheduler=scheduler_factory() if scheduler_factory else None,
        )
        built[name] = CaseStudyScenario(config)
    return built


def cell_stats(result) -> dict:
    """The simulated statistics a cell must reproduce exactly."""
    return {
        "elapsed_seconds": result.elapsed_seconds,
        "completed": result.completed,
        "out_of_time": result.out_of_time,
        "write_ack_seconds": result.write_ack_seconds,
        "bus_tx_frames": result.bus_tx_frames,
        "cbr_bytes_delivered": result.cbr_bytes_delivered,
    }


def run_pass(workload: str, order: list, scheduler_factory=None):
    """Build and run every cell once; returns ``(seconds, stats)``.

    The previous pass's cyclic garbage is collected first, untimed, so
    every pass starts from the same heap and the peak resident set does
    not depend on how many passes fit in the run.
    """
    gc.collect()
    started = time.perf_counter()
    scenarios = build(workload, order, scheduler_factory)
    results = {name: s.run(max_sim_time=MAX_SIM_TIME) for name, s in scenarios.items()}
    seconds = time.perf_counter() - started
    return seconds, {name: cell_stats(r) for name, r in results.items()}


class SlicedRun:
    """Stands in for one scenario's ``Simulator.run``: runs to the same
    end in slices of ``slice_s`` simulated seconds, timing each slice
    and running one yardstick chunk after it.

    Stopping and resuming at a slice boundary fires the same events in
    the same order, so the cell's statistics are unchanged (the
    reference check holds every pass to that).
    """

    def __init__(self, sim, slice_s: float, totals: list):
        self.whole = sim.run
        self.sim = sim
        self.slice_s = slice_s
        self.totals = totals  # [work_s, chunk_s, chunks]

    def __call__(self, until: float):
        clock, totals = time.perf_counter, self.totals
        edge = self.sim.now
        while True:
            edge = min(edge + self.slice_s, until)
            started = clock()
            reached = self.whole(until=edge)
            totals[0] += clock() - started
            totals[1] += speed.chunk_s()
            totals[2] += 1
            # Short of the edge: the scenario stopped the simulator.
            if reached < edge or edge >= until:
                return reached


def run_scaled_pass(workload: str, order: list):
    """One pass timed slice by slice; returns ``(scaled_s, raw_s, stats)``.

    ``raw_s`` is the host time of building and running every cell
    (chunks excluded); ``scaled_s`` is the same at the nominal host
    speed of ``speed.py``.
    """
    gc.collect()
    totals = [0.0, 0.0, 0]
    started = time.perf_counter()
    scenarios = build(workload, order)
    totals[0] += time.perf_counter() - started
    totals[1] += speed.chunk_s()
    totals[2] += 1
    results = {}
    for name, scenario in scenarios.items():
        scenario.sim.run = SlicedRun(scenario.sim, SLICE_S[workload], totals)
        results[name] = cell_stats(scenario.run(max_sim_time=MAX_SIM_TIME))
    work_s, chunks_s, chunks = totals
    return speed.scaled(work_s, chunks_s, chunks), work_s, results


def mismatches(workload: str, observed: dict, reference: dict) -> list[str]:
    """Cells whose statistics differ from the reference in any field."""
    expected = reference[workload]
    return sorted(name for name, cell in observed.items() if cell != expected.get(name))


def table4_error_pct_max(workload: str, observed: dict) -> float:
    """Worst cell error against the paper, percent.

    An "Out of Time" cell scores 0 when the model is also out of time
    and 100 otherwise.
    """
    worst = 0.0
    for name, cell in observed.items():
        wires, cbr, _ = CELLS[workload][name]
        paper = PAPER_TABLE4[(wires, cbr)]
        if paper is None:
            error = 0.0 if cell["out_of_time"] else 100.0
        else:
            error = abs(cell["elapsed_seconds"] - paper) / paper * 100.0
        worst = max(worst, error)
    return worst


def measure_setup(workload: str, repeats: int) -> list[tuple[float, float]]:
    """``(scaled_s, raw_s)`` of fresh-interpreter set-ups (import plus
    building every cell)."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, workload, str(SETUP_CHUNKS)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=120, check=True,
        )
        took, chunks_s, chunks = done.stdout.split()[-3:]
        times.append((speed.scaled(float(took), float(chunks_s), int(chunks)), float(took)))
    return times


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def run(workload: str, seed: int, seconds: float, trace: bool, fast: bool):
    """One benchmark run; returns ``(correct, attempted, failed, values, detail)``."""
    rng = random.Random(seed)
    names = list(CELLS[workload])
    reference = load_reference()
    if trace:
        return _run_traced(workload, rng, names, reference)
    setups = measure_setup(workload, 1 if fast else SETUP_PROBES)
    for _ in range(0 if fast else WARMUP_PASSES[workload]):
        run_pass(workload, rng.sample(names, len(names)))
    scaled_s, raw_s, failed_cells, attempted = [], [], [], 0
    started = time.perf_counter()
    while True:
        scaled, raw, observed = run_scaled_pass(workload, rng.sample(names, len(names)))
        scaled_s.append(scaled)
        raw_s.append(raw)
        attempted += len(observed)
        failed_cells += mismatches(workload, observed, reference)
        # Stop at the pass boundary nearest the deadline.
        elapsed = time.perf_counter() - started
        if fast or elapsed + statistics.median(raw_s) / 2 > seconds:
            break
    values = {
        "setup_s": statistics.median(scaled for scaled, _raw in setups),
        "ops_per_s": OPS_PER_CELL * len(names) / statistics.median(scaled_s),
        "peak_rss_mb": layers.memory_kb()["peak_rss_kb"] / 1024.0,
    }
    detail = {
        "passes": len(scaled_s),
        "pass_scaled_s": scaled_s,
        "pass_raw_s": raw_s,
        "setup_raw_s": [raw for _scaled, raw in setups],
        "mismatched_cells": sorted(set(failed_cells)),
        "table4_err_pct_max": table4_error_pct_max(workload, observed),
    }
    return not failed_cells, attempted, len(failed_cells), values, detail


def _run_traced(workload: str, rng: random.Random, names: list, reference: dict):
    """An untraced pass, a pass counting events, then a pass under the
    sampler and spans for the per-layer numbers.

    Events are counted apart so that the counter's own cost does not
    land in ``des``, the layer of its caller.
    """
    for _ in range(WARMUP_PASSES[workload]):
        run_pass(workload, rng.sample(names, len(names)))
    untraced_s, _ = run_pass(workload, rng.sample(names, len(names)))

    heaps = []

    def counting_heap():
        heaps.append(CountingHeap())
        return heaps[-1]

    run_pass(workload, rng.sample(names, len(names)), counting_heap)
    events = sum(heap.events for heap in heaps)

    handle_spans, space_spans = layers.HandleSpans(), layers.SpanTotals()
    sampler, gc_monitor = layers.Sampler(), layers.GcMonitor()
    gc.collect()
    gc_monitor.start()
    sampler.start()
    started = time.perf_counter()
    scenarios = build(workload, rng.sample(names, len(names)))
    for scenario in scenarios.values():
        scenario.server.handle = handle_spans.wrap(scenario.server.handle)
        layers.wrap_space_ops(scenario.space, space_spans)
    results = {name: s.run(max_sim_time=MAX_SIM_TIME) for name, s in scenarios.items()}
    traced_s = time.perf_counter() - started
    sampler.stop()
    gc_monitor.stop()

    observed = {name: cell_stats(r) for name, r in results.items()}
    failed = mismatches(workload, observed, reference)
    profile = sampler.summary()
    self_s = profile["self_s"]
    frames = sum(s.system.bus.tx_frames + s.system.bus.rx_frames for s in scenarios.values())
    ops = OPS_PER_CELL * len(scenarios)
    space_stats = [s.space.stats for s in scenarios.values()]
    hits = sum(st.reads + st.takes for st in space_stats)
    lookups = hits + sum(st.misses for st in space_stats)
    handle_us = handle_spans.durations_us()
    gc_summary = gc_monitor.summary()
    values = {f"{layer}.self_share": profile["share"][layer] for layer in layers.LAYERS}
    values.update({
        "des.events": events,
        "des.ns_per_event": self_s["des"] / events * 1e9 if events else 0.0,
        "tpwire.frames": frames,
        "tpwire.us_per_frame": self_s["tpwire"] / frames * 1e6 if frames else 0.0,
        "hw.self_s": self_s["hw"],
        "model.table4_err_pct_max": table4_error_pct_max(workload, observed),
        "codec.us_per_op": self_s["codec"] / ops * 1e6,
        "bytes.in_per_op": 0.0,
        "bytes.out_per_op": 0.0,
        "space.us_per_op": space_spans.seconds / space_spans.count * 1e6 if space_spans.count else 0.0,
        "space.hit_ratio": hits / lookups if lookups else 0.0,
        "framing.frames_per_read": 0.0,
        "aio.us_per_op": self_s["aio"] / ops * 1e6,
        "loop.us_per_op": self_s["loop"] / ops * 1e6,
        "server.requests": sum(s.server.requests_handled for s in scenarios.values()),
        "server.handle_us_p50": stats.percentile(handle_us, 50) if handle_us else 0.0,
        "server.handle_us_p99": stats.tail(handle_us)[1] if handle_us else 0.0,
        "request.wait_ms_p50": 0.0,
        "request.wait_ms_p99": 0.0,
        "request.reply_ms_p50": 0.0,
        "runtime.gc_gen2": gc_summary["gen2"],
        "runtime.gc_pause_ms_max": gc_summary["pause_ms_max"],
        "runtime.gc_pause_ms_total": gc_summary["pause_ms_total"],
        "server.rss_growth_kb_per_kop": 0.0,
        "knee_ops_s": 0.0,
        "p50_ms": 0.0,
        "p90_ms": 0.0,
        "p99_ms": 0.0,
        "p999_ms": 0.0,
        "loadgen.late_p99_ms": 0.0,
        "loadgen.prep_s": 0.0,
        "trace.overhead_pct": (traced_s - untraced_s) / untraced_s * 100.0,
        "trace.attributed_ratio": profile["attributed_ratio"],
        "trace.samples": profile["samples"],
        "trace.cpu_s": profile["cpu_s"],
    })
    detail = {"untraced_s": untraced_s, "traced_s": traced_s, "profile": profile,
              "mismatched_cells": failed}
    return not failed, len(observed), len(failed), values, detail
