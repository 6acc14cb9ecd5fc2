"""Small statistics helpers for the benchmark harness."""

from __future__ import annotations

import math
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    if not values:
        return math.nan
    return sum(values) / len(values)


def sample_stddev(values: Sequence[float]) -> float:
    n = len(values)
    if n < 2:
        return math.nan
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (n - 1))


def scaling_factor(reference: Sequence[float], model: Sequence[float]) -> float:
    """Least-squares through-origin factor mapping model -> reference.

    The paper derives "a scaling factor used to understand how close to
    reality is the NS-2-TpWIRE model" from the Table 3 measurements; with
    paired timings this is ``argmin_k sum (ref_i - k * model_i)^2``.
    """
    if len(reference) != len(model) or not reference:
        raise ValueError("need equal, non-empty measurement vectors")
    denominator = sum(m * m for m in model)
    if denominator == 0:
        raise ValueError("model measurements are all zero")
    return sum(r * m for r, m in zip(reference, model)) / denominator


def relative_error(reference: float, model: float) -> float:
    """|model - reference| / reference."""
    if reference == 0:
        raise ValueError("reference must be non-zero")
    return abs(model - reference) / abs(reference)
