"""Deterministic observability: tracing, metrics and exporters.

The measurement layer the paper's evaluation is built on (Tables 3/4)
— structured, simulation-time-stamped span/event records, a federated
metric registry, and exporters (JSONL traces, VCD waveforms, benchmark
JSON artefacts).  Everything is stdlib-only and a pure function of the
simulated run: no wall clocks, no unseeded randomness (enforced by
``repro.lint``).
"""

from repro.obs.errors import (
    ObsError,
    MetricError,
    ExportError,
    SchemaError,
    VcdError,
)
from repro.obs.records import TraceEvent, dump_jsonl
from repro.obs.tracer import Tracer, SpanHandle
from repro.obs.metrics import MetricRegistry
from repro.obs.vcd import VcdRecorder
from repro.obs.export import (
    load_bench_json,
    write_bench_json,
)
from repro.obs.observability import Observability

__all__ = [
    "ObsError",
    "MetricError",
    "ExportError",
    "SchemaError",
    "VcdError",
    "TraceEvent",
    "dump_jsonl",
    "Tracer",
    "SpanHandle",
    "MetricRegistry",
    "VcdRecorder",
    "load_bench_json",
    "write_bench_json",
    "Observability",
]
