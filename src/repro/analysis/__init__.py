"""Measurement analysis and report rendering for the benchmarks."""

from repro.analysis.stats import (
    scaling_factor,
    relative_error,
)
from repro.analysis.tables import Table, Comparison, render_comparisons
from repro.analysis.timeline import (
    activity_timeline,
    event_summary,
)

__all__ = [
    "activity_timeline",
    "event_summary",
    "scaling_factor",
    "relative_error",
    "Table",
    "Comparison",
    "render_comparisons",
]
