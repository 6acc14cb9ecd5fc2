"""Measurement analysis and report rendering for the benchmarks."""

from repro.analysis.stats import (
    mean,
    sample_stddev,
    scaling_factor,
    relative_error,
)
from repro.analysis.tables import Table, Comparison, render_comparisons
from repro.analysis.timeline import (
    activity_timeline,
    bucket_counts,
    event_summary,
    render_strip,
)

__all__ = [
    "activity_timeline",
    "bucket_counts",
    "event_summary",
    "render_strip",
    "mean",
    "sample_stddev",
    "scaling_factor",
    "relative_error",
    "Table",
    "Comparison",
    "render_comparisons",
]
