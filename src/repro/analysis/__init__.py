"""Measurement analysis and report rendering for the benchmarks."""

from repro import lazy_exports

_EXPORTS = {
    "repro.analysis.stats": ("scaling_factor", "relative_error"),
    "repro.analysis.tables": ("Table", "Comparison", "render_comparisons"),
    "repro.analysis.timeline": ("activity_timeline", "event_summary"),
}

__all__ = [
    "activity_timeline",
    "event_summary",
    "scaling_factor",
    "relative_error",
    "Table",
    "Comparison",
    "render_comparisons",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
