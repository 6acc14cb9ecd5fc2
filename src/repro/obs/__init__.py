"""Deterministic observability: tracing, metrics and exporters.

The measurement layer the paper's evaluation is built on (Tables 3/4)
— structured, simulation-time-stamped span/event records, a federated
metric registry, and exporters (JSONL traces, VCD waveforms, benchmark
JSON artefacts).  Everything is stdlib-only and a pure function of the
simulated run: no wall clocks, no unseeded randomness (enforced by
``repro.lint``).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.obs.errors": (
        "ObsError",
        "MetricError",
        "ExportError",
        "SchemaError",
        "VcdError",
    ),
    "repro.obs.records": ("TraceEvent", "dump_jsonl"),
    "repro.obs.tracer": ("Tracer", "SpanHandle"),
    "repro.obs.metrics": ("MetricRegistry",),
    "repro.obs.vcd": ("VcdRecorder",),
    "repro.obs.export": ("load_bench_json", "write_bench_json"),
    "repro.obs.observability": ("Observability",),
}

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

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
