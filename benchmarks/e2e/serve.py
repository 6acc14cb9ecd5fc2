"""Serving workloads: an open loop over TCP against the asyncio front end.

The server runs in its own process (``server.py``) on one core; this
process is the load generator, pinned to the other.  A run is a series
of *segments*, each against a fresh server process:

1. set-up (timed): start the server, preload the space, listen, connect
   two TCP connections and, for the binary workload, negotiate the codec
   with HELLO;
2. a warm-up window of Poisson arrivals at the workload's reference rate;
3. :data:`BURSTS_PER_SEGMENT` capacity bursts of :data:`BURST` requests
   all due at once, so the server works through a backlog.  While a
   burst lasts the server runs yardstick chunks (``speed.py``) between
   its callbacks, and reports the CPU time it spent on the requests.

``ops_per_s`` is one over the median, over every burst of the run, of
the server's CPU time per request scaled to the nominal host speed: the
requests per second one server core answers.  ``setup_s`` is the median
scaled set-up, the server's own chunks bracketing its start, and
``peak_rss_mb`` the median of the server's peak resident set at the end
of each segment.  A fresh server per segment gives each segment the same
heap history, so leaked leases cost every segment alike.  Every reply
is decoded and checked after its window.

The traced run (``--trace 1``) serves one untraced and one traced
reference window on one server, then searches for the knee: the highest
Poisson rate at which a step's p99 stays within :data:`P99_LIMIT_MS` and
every reply comes within :data:`DRAIN_S` of the last due time.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time

from benchmarks.e2e import layers, loadgen, speed, stats, traffic
from benchmarks.e2e.metrics import ROOT, child_env
from repro.core import MessageType

#: Knee step pass criteria (traced run).
P99_LIMIT_MS = 50.0
DRAIN_S = 1.0
STEP_FACTOR = 2.0
BISECTIONS = 3

#: A knee step whose p99 send lateness exceeds this did not offer its
#: rate on schedule and is not credited.
LATE_LIMIT_MS = 0.5

CONNECTIONS = 2

#: Requests of one capacity burst: about 0.1 s of the server's work on
#: the reference box.  Fixed, like the bursts per segment, so every
#: segment grows the heap alike.
BURST = {"serve_read_binary": 2_000, "serve_churn_xml": 500}
BURSTS_PER_SEGMENT = 10

#: Seconds of each segment's warm-up window.
WARMUP_S = 0.5

#: Seconds of the traced run's windows and of each knee step.
TRACE_REFERENCE_S = 3.0
KNEE_STEP_S = 1.0


class ServerProcess:
    """The server child process and its line-based control channel.

    ``chunks`` and ``chunks_s`` are the yardstick chunks the server ran
    on each side of its own start, and their total host time.
    """

    def __init__(self, workload: str, seed: int, cpu, timeout: float = 60.0):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.server", workload, str(seed),
             "" if cpu is None else str(cpu)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._buffer = b""
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            ready = self._line(timeout)
            if not ready.startswith("READY "):
                raise RuntimeError(f"server did not start: {ready!r}")
            _ready, port, chunks_s, chunks = ready.split()
            self.port, self.chunks_s, self.chunks = int(port), float(chunks_s), int(chunks)
        except BaseException:
            self.stop()
            raise

    def _line(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not self._selector.select(left):
                raise TimeoutError("server control channel timed out")
            chunk = os.read(self.proc.stdout.fileno(), 1 << 20)
            if not chunk:
                raise ConnectionError("server process exited")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode()

    def command(self, text: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()
        return json.loads(self._line(timeout))

    def stop(self) -> None:
        try:
            self.proc.stdin.write(b"STOP\n")
            self.proc.stdin.close()
        except (BrokenPipeError, ValueError):
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._selector.close()
        self.proc.stdout.close()


#: Runs on the server's core at ``SCHED_IDLE`` priority, so it gets only
#: cycles the server does not want and ends when its parent does.
IDLE_SPINNER = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    pass\n"
)


class Run:
    """One serving run's server, connections and running totals.

    The server gets one core and this generator the other.  For a run
    that times latency (``spin``), an idle-priority spinner keeps the
    server's core from going idle: a request arriving at an idle virtual
    CPU waits for the host to wake it, a delay that other tenants of the
    host stretch several-fold, while a busy one switches to the server at
    once.  A use as a context manager stops everything the run started.
    """

    def __init__(self, workload: str, seed: int, spin: bool = False):
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.rate = traffic.REFERENCE_RATE[workload]
        self.attempted = 0
        self.failed = 0
        self.prep_s = 0.0
        self.server = None
        self.conns = []
        self.spinner = None
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.server_cpu = cpus[-1] if len(cpus) >= 2 else None
        if self.server_cpu is not None:
            os.sched_setaffinity(0, {cpus[0]})
            if spin and hasattr(os, "SCHED_IDLE"):
                self.spinner = subprocess.Popen(
                    [sys.executable, "-c", IDLE_SPINNER, str(self.server_cpu)]
                )

    def __enter__(self) -> "Run":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self.spinner is not None:
            self.spinner.kill()
            self.spinner.wait()

    def start(self) -> tuple[float, float]:
        """A fresh server, preloaded, with fresh connections and op mixes;
        returns ``(scaled_s, raw_s)`` of this set-up (the server's
        yardstick chunks excluded from ``raw_s``)."""
        started = time.perf_counter()
        self.server = ServerProcess(self.workload, self.seed, self.server_cpu)
        registry = traffic.registry()
        model = traffic.MODELS[self.workload]
        self.conns = [
            loadgen.Connection(
                c, ("127.0.0.1", self.server.port), registry,
                traffic.CODEC[self.workload],
                model(c, CONNECTIONS, self.seed, traffic.PRELOAD[self.workload]),
            )
            for c in range(CONNECTIONS)
        ]
        raw = time.perf_counter() - started - self.server.chunks_s
        return speed.scaled(raw, self.server.chunks_s, self.server.chunks), raw

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.server is not None:
            self.server.stop()
            self.server = None

    def plan(self, dues: list[float]) -> loadgen.Plan:
        started = time.perf_counter()
        plan = loadgen.prepare(self.conns, self.rng, dues)
        self.prep_s += time.perf_counter() - started
        return plan

    def check(self, window: loadgen.Window) -> dict:
        """Decode and verify every reply of ``window``, counting failures."""
        check = loadgen.verify(self.conns, window)
        self.attempted += len(window.plan.due)
        self.failed += check["errors"] + check["wrong"] + check["unanswered"]
        return check

    def window(self, dues: list[float]):
        """Prepare, drive and verify one window; returns it and its summary."""
        window = loadgen.drive(self.conns, self.plan(dues), drain_s=DRAIN_S)
        check = self.check(window)
        latencies = window.latencies_ms()
        ordered = sorted(latencies)
        summary = {
            "ops": len(window.plan.due),
            **check,
            "p50_ms": stats.percentile(ordered, 50),
            "p90_ms": stats.percentile(ordered, 90),
            "p99_ms": stats.percentile(ordered, 99),
            "late_p99_ms": stats.percentile(sorted(window.late_ms()), 99),
            "drained": window.drained,
        }
        summary["passed"] = (
            window.drained and check["unanswered"] == 0 and summary["p99_ms"] <= P99_LIMIT_MS
        )
        return window, summary

    def poisson_window(self, rate: float, seconds: float):
        return self.window(loadgen.poisson(self.rng, rate, seconds))

    def knee_step(self, rate: float) -> bool:
        """Whether a knee step at ``rate`` passed; a step the generator
        sent late is not credited, since that rate was not offered."""
        _window, summary = self.poisson_window(rate, KNEE_STEP_S)
        return summary["passed"] and summary["late_p99_ms"] <= LATE_LIMIT_MS

    def burst(self) -> tuple[float, float]:
        """One capacity burst; returns ``(scaled, raw)`` server CPU
        seconds per request, the yardstick chunks' own time excluded."""
        plan = self.plan([0.0] * BURST[self.workload])
        self.server.command("ARM")
        window = loadgen.drive(self.conns, plan, drain_s=DRAIN_S)
        spent = self.server.command("DISARM")
        self.check(window)
        raw = spent["cpu_s"] / spent["requests"]
        return speed.scaled(raw, spent["chunk_s"], spent["chunks"]), raw

    def segment(self, bursts: int) -> dict:
        """Fresh server, warm-up window and capacity bursts."""
        self.close()
        setup_s, setup_raw_s = self.start()
        _window, warmup = self.poisson_window(self.rate, WARMUP_S)
        per_request = [self.burst() for _ in range(bursts)]
        mark = self.server.command("MARK")
        return {
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "warmup": warmup,
            "cpu_s_per_request": [scaled for scaled, _raw in per_request],
            "raw_cpu_s_per_request": [raw for _scaled, raw in per_request],
            "peak_rss_kb": mark["peak_rss_kb"],
        }


def run(workload: str, seed: int, seconds: float, trace: bool, fast: bool):
    """One benchmark run; returns ``(correct, attempted, failed, values, detail)``."""
    with Run(workload, seed, spin=trace) as job:
        if trace:
            return _traced(job, seconds)
        segments = []
        started = time.perf_counter()
        while True:
            began = time.perf_counter()
            segments.append(job.segment(1 if fast else BURSTS_PER_SEGMENT))
            # Stop at the segment boundary nearest the deadline.
            took = time.perf_counter() - began
            if fast or time.perf_counter() - started + took / 2 > seconds:
                break
    per_request = [v for s in segments for v in s["cpu_s_per_request"]]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in segments),
        "ops_per_s": 1.0 / statistics.median(per_request),
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] for s in segments) / 1024.0,
    }
    detail = {"segments": segments, "prep_s": job.prep_s}
    return job.failed == 0, job.attempted, job.failed, values, detail


def _traced(job: Run, seconds: float):
    """Untraced and traced reference windows, then the knee search."""
    clock = time.get_clock_info("perf_counter")
    if "CLOCK_MONOTONIC" not in clock.implementation:
        raise RuntimeError(
            f"perf_counter is {clock.implementation}; cross-process spans need CLOCK_MONOTONIC"
        )
    started = time.perf_counter()
    job.start()
    job.poisson_window(job.rate, WARMUP_S)
    mark0 = job.server.command("MARK")
    plain, plain_summary = job.poisson_window(job.rate, TRACE_REFERENCE_S)
    mark1 = job.server.command("MARK")
    job.server.command("TRACE ON")
    traced, traced_summary = job.poisson_window(job.rate, TRACE_REFERENCE_S)
    spans = job.server.command("TRACE OFF")
    mark2 = job.server.command("MARK")
    knee, steps = stats.find_knee(
        job.knee_step, job.rate, plain_summary["passed"],
        factor=STEP_FACTOR, bisections=BISECTIONS,
        more=lambda: time.perf_counter() - started + KNEE_STEP_S + DRAIN_S < seconds,
    )

    profile = spans["profile"]
    self_s = profile["self_s"]
    ops = mark2["requests"] - mark1["requests"]
    plain_ops = mark1["requests"] - mark0["requests"]
    plain_cpu = (mark1["cpu_s"] - mark0["cpu_s"]) / plain_ops
    traced_cpu = (mark2["cpu_s"] - mark1["cpu_s"]) / ops
    handle = spans["handle"]
    index_of = {rid: i for i, rid in enumerate(traced.plan.request_id)}
    waits, replies, timeline = [], [], []
    for rid, began, ended in zip(handle["request_ids"], handle["starts"], handle["ends"]):
        i = index_of[rid]
        waits.append((began - traced.sent[i]) * 1e3)
        replies.append((traced.received[i] - ended) * 1e3)
        timeline.append({
            "kind": "request", "request_id": rid, "conn": traced.plan.conn[i],
            "type": traced.plan.msg_type[i], "due": traced.start + traced.plan.due[i],
            "sent": traced.sent[i], "handle_start": began, "handle_end": ended,
            "received": traced.received[i],
        })
    waits.sort()
    replies.sort()
    handle_us = sorted((e - s) * 1e6 for s, e in zip(handle["starts"], handle["ends"]))
    latencies = sorted(plain.latencies_ms())
    lookups = sum(
        1 for t in traced.plan.msg_type
        if t in (MessageType.READ_IF_EXISTS, MessageType.TAKE_IF_EXISTS)
    )
    gc_summary = mark1["gc"]
    values = {f"{layer}.self_share": profile["share"][layer] for layer in layers.LAYERS}
    values.update({
        "des.events": 0,
        "des.ns_per_event": 0.0,
        "tpwire.frames": 0,
        "tpwire.us_per_frame": 0.0,
        "hw.self_s": self_s["hw"],
        "model.table4_err_pct_max": 0.0,
        "codec.us_per_op": self_s["codec"] / ops * 1e6,
        "bytes.in_per_op": (mark2["bytes_in"] - mark1["bytes_in"]) / ops,
        "bytes.out_per_op": (mark2["bytes_out"] - mark1["bytes_out"]) / ops,
        "space.us_per_op": spans["space_s"] / spans["space_calls"] * 1e6,
        "space.hit_ratio": traced_summary["hits"] / lookups if lookups else 0.0,
        "framing.frames_per_read": spans["frames"] / spans["feed_calls"],
        "aio.us_per_op": self_s["aio"] / ops * 1e6,
        "loop.us_per_op": self_s["loop"] / ops * 1e6,
        "server.requests": len(handle_us),
        "server.handle_us_p50": stats.percentile(handle_us, 50),
        "server.handle_us_p99": stats.tail(handle_us)[1],
        "request.wait_ms_p50": stats.percentile(waits, 50),
        "request.wait_ms_p99": stats.tail(waits)[1],
        "request.reply_ms_p50": stats.percentile(replies, 50),
        "runtime.gc_gen2": gc_summary["gen2"],
        "runtime.gc_pause_ms_max": gc_summary["pause_ms_max"],
        "runtime.gc_pause_ms_total": gc_summary["pause_ms_total"],
        "server.rss_growth_kb_per_kop": (mark1["rss_kb"] - mark0["rss_kb"]) / (plain_ops / 1e3),
        "knee_ops_s": knee,
        "p50_ms": stats.percentile(latencies, 50),
        "p90_ms": stats.percentile(latencies, 90),
        "p99_ms": stats.percentile(latencies, 99),
        "p999_ms": stats.tail(latencies, cap=99.9)[1],
        "loadgen.late_p99_ms": plain_summary["late_p99_ms"],
        "loadgen.prep_s": job.prep_s,
        "trace.overhead_pct": (traced_cpu - plain_cpu) / plain_cpu * 100.0,
        "trace.attributed_ratio": profile["attributed_ratio"],
        "trace.samples": profile["samples"],
        "trace.cpu_s": profile["cpu_s"],
    })
    detail = {"profile": profile, "reference": plain_summary, "traced": traced_summary,
              "knee_steps": steps, "timeline": timeline}
    return job.failed == 0, job.attempted, job.failed, values, detail
