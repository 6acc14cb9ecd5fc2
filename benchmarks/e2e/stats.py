"""Percentiles, the knee search and run-to-run spread (pure functions)."""

from __future__ import annotations

import math
import statistics
from typing import Callable, Sequence

#: Percentiles the tail helper may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A reported tail needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail(ordered: Sequence[float], cap: float = 99.0) -> tuple[float, float, int]:
    """``(pct, value, count)`` at the highest percentile up to ``cap`` that
    has at least :data:`MIN_BEYOND` samples beyond it.

    Falls back to the median when even the median lacks that many.
    """
    count = len(ordered)
    for pct in TAIL_LADDER:
        if pct <= cap and beyond(count, pct) >= MIN_BEYOND:
            return pct, percentile(ordered, pct), count
    return 50.0, percentile(ordered, 50.0), count


def find_knee(
    probe: Callable[[float], bool],
    start: float,
    start_passed: bool,
    factor: float = 2.0,
    bisections: int = 4,
    floor: float = 1.0,
    more: Callable[[], bool] = lambda: True,
) -> tuple[float, list[tuple[float, bool]]]:
    """Highest rate ``probe`` passes, by expansion then geometric bisection.

    ``start`` was already probed (``start_passed``).  From a pass the rate
    grows by ``factor`` until a step fails; from a failure it shrinks
    until one passes.  ``bisections`` geometric midpoints then narrow the
    bracket.  The search stops early when ``more()`` is false before a
    step.  Returns the last passing rate (0.0 when none passed) and every
    ``(rate, passed)`` step probed.
    """
    steps: list[tuple[float, bool]] = []
    low, high = (start, math.inf) if start_passed else (0.0, start)
    while more():
        if high == math.inf:
            rate = low * factor
        elif low == 0.0:
            rate = high / factor
            if rate < floor:
                break
        elif bisections > 0:
            rate = math.sqrt(low * high)
            bisections -= 1
        else:
            break
        passed = probe(rate)
        steps.append((rate, passed))
        if passed:
            low = rate
        else:
            high = rate
    return low, steps


def spreads(values: Sequence[float]) -> dict:
    """Median, (max-min)/median and interquartile range/median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "range_over_median": (max(values) - min(values)) / med if med else 0.0,
        "iqr_over_median": (q3 - q1) / med if med else 0.0,
    }
