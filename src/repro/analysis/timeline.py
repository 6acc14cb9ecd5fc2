"""ASCII activity timelines from :class:`~repro.obs.TraceEvent` records.

NS-2 users post-process trace files; the analog here renders the bus's
frame activity (the ``tpwire`` ``tx``/``rx`` events of an
``Observability`` tracer) as a density strip so a run can be eyeballed
without plotting::

    0.0s |#########=======:::...   ...:::=====#########| 120.0s
          ^ write request           ^ take + response

Density characters scale from ``.`` (sparse) to ``@`` (busiest bucket).
The functions read only each record's ``time``, ``cat`` and ``name``;
``repro.obs`` sits above this layer, so the type is not imported.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

#: Density ramp, sparse to dense.
RAMP = " .:-=+*#%@"


def bucket_counts(
    records: Sequence,
    start: float,
    end: float,
    buckets: int = 60,
    names: Optional[Iterable[str]] = None,
) -> list[int]:
    """Event counts per equal-width time bucket over ``[start, end)``,
    optionally only of the events called one of ``names``."""
    if end <= start:
        raise ValueError(f"need end > start, got [{start}, {end})")
    if buckets < 1:
        raise ValueError(f"need at least one bucket, got {buckets}")
    wanted = set(names) if names is not None else None
    counts = [0] * buckets
    width = (end - start) / buckets
    for record in records:
        if wanted is not None and record.name not in wanted:
            continue
        if not start <= record.time < end:
            continue
        index = int((record.time - start) / width)
        counts[min(index, buckets - 1)] += 1
    return counts


def render_strip(counts: Sequence[int]) -> str:
    """Map bucket counts onto the density ramp."""
    peak = max(counts) if counts else 0
    if peak == 0:
        return " " * len(counts)
    out = []
    for count in counts:
        level = 0 if count == 0 else 1 + int(
            (count / peak) * (len(RAMP) - 2)
        )
        out.append(RAMP[min(level, len(RAMP) - 1)])
    return "".join(out)


def activity_timeline(
    records: Sequence,
    start: float,
    end: float,
    buckets: int = 60,
    names: Optional[Iterable[str]] = None,
    label: str = "",
) -> str:
    """One labelled density strip."""
    strip = render_strip(bucket_counts(records, start, end, buckets, names))
    prefix = f"{label} " if label else ""
    return f"{prefix}{start:g}s |{strip}| {end:g}s"


def event_summary(records: Sequence) -> dict:
    """Counts by ``(cat, name)`` plus totals, for quick sanity checks."""
    by_pair = Counter((record.cat, record.name) for record in records)
    return {
        "total": len(records),
        "by_cat_name": dict(by_pair),
        "first_time": records[0].time if records else None,
        "last_time": records[-1].time if records else None,
    }
