"""The metric registry: named counters, gauges, histograms and rates.

The registry *federates* statistics its components already keep rather
than reimplementing them:

* a **counter** is a zero-argument callable attached with
  :meth:`MetricRegistry.attach` and read when :meth:`~MetricRegistry.summary`
  runs — the component keeps its own integer (``bus.tx_frames``,
  ``space.stats.writes``) and the registry never copies it;
* a **gauge** wraps :class:`~repro.des.monitor.TimeWeightedMonitor`
  (queue depth, bus busy flag) — its summary carries the time average,
  which for a 0/1 signal *is* the utilisation of Table 3;
* a **histogram** wraps :class:`~repro.des.monitor.TallyMonitor`
  (per-op latencies) and reports count/mean/min/max plus the p50/p90/p99
  percentiles;
* a **rate** wraps :class:`~repro.des.monitor.RateMonitor` (frames/s,
  bytes/s — the Table 3 throughput columns).

Externally-owned monitors (e.g. ``TpwireBus.utilization``) federate in
the same way, so instrumented components keep their existing statistics
objects and the registry's :meth:`summary` still sees them.  Every name
is registered once: attaching a name that is already taken raises
:class:`~repro.obs.errors.MetricError`.

Naming convention (documented in ``docs/observability.md``):
``<component>.<metric>`` in lowercase snake case, components dotted from
coarse to fine — ``tpwire.tx_frames``, ``master.transaction_seconds``,
``space.items``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

from repro.des.monitor import RateMonitor, TallyMonitor, TimeWeightedMonitor
from repro.obs.errors import MetricError

#: Percentiles reported for every histogram.
HISTOGRAM_PERCENTILES = (50, 90, 99)


class _ClockShim:
    """Adapts a ``clock()`` callable to the ``sim.now`` protocol the
    :mod:`repro.des.monitor` classes expect."""

    __slots__ = ("_clock",)

    def __init__(self, clock: Callable[[], float]):
        self._clock = clock

    @property
    def now(self) -> float:
        return self._clock()


def _finite_or_none(value: float):
    """JSON-safe scalar: non-finite floats become ``None``."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


Monitor = Union[TallyMonitor, TimeWeightedMonitor, RateMonitor]
#: What :meth:`MetricRegistry.attach` accepts: a monitor, or a
#: zero-argument callable read as a counter.
Source = Union[Monitor, Callable[[], int]]


class MetricRegistry:
    """Named metrics over one injected simulation clock."""

    def __init__(self, clock: Callable[[], float]):
        self._shim = _ClockShim(clock)
        self._counters: dict[str, Callable[[], int]] = {}
        self._gauges: dict[str, TimeWeightedMonitor] = {}
        self._histograms: dict[str, TallyMonitor] = {}
        self._rates: dict[str, RateMonitor] = {}
        self._tables = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
            "rate": self._rates,
        }

    # -- creation (idempotent per name/kind) -------------------------------

    def gauge(self, name: str, initial: float = 0.0) -> TimeWeightedMonitor:
        return self._get(
            "gauge",
            name,
            lambda: TimeWeightedMonitor(self._shim, initial=initial, name=name),
        )

    def histogram(self, name: str) -> TallyMonitor:
        return self._get("histogram", name, lambda: TallyMonitor(name=name))

    def rate(self, name: str) -> RateMonitor:
        return self._get("rate", name, lambda: RateMonitor(self._shim, name=name))

    def _get(self, kind: str, name: str, factory):
        table = self._tables[kind]
        self._check_name(name, skip=table)
        if name not in table:
            table[name] = factory()
        return table[name]

    def attach(self, name: str, source: Source) -> Source:
        """Federate an externally-owned monitor, or a zero-argument
        callable read as a counter, under ``name``."""
        self._check_name(name)
        if isinstance(source, TimeWeightedMonitor):
            self._gauges[name] = source
        elif isinstance(source, TallyMonitor):
            self._histograms[name] = source
        elif isinstance(source, RateMonitor):
            self._rates[name] = source
        elif callable(source):
            self._counters[name] = source
        else:
            raise MetricError(
                f"cannot attach {type(source).__name__} as metric {name!r}"
            )
        return source

    def _check_name(self, name: str, skip: Optional[dict] = None) -> None:
        if not name:
            raise MetricError("metric name must be non-empty")
        for kind, table in self._tables.items():
            if table is not skip and name in table:
                raise MetricError(
                    f"metric name {name!r} already registered as a {kind}"
                )

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """All metrics as one nested, JSON-safe, deterministic dict."""
        return {
            "counters": {
                name: self._counters[name]()
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauge_summary(self._gauges[name])
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histogram_summary(self._histograms[name])
                for name in sorted(self._histograms)
            },
            "rates": {
                name: self._rate_summary(self._rates[name])
                for name in sorted(self._rates)
            },
        }

    @staticmethod
    def _gauge_summary(gauge: TimeWeightedMonitor) -> dict:
        return {
            "value": _finite_or_none(gauge.value),
            "time_average": _finite_or_none(gauge.time_average()),
            "integral": _finite_or_none(gauge.integral()),
        }

    @staticmethod
    def _histogram_summary(hist: TallyMonitor) -> dict:
        out = {
            "count": hist.count,
            "mean": _finite_or_none(hist.mean),
            "stddev": _finite_or_none(hist.stddev),
            "min": _finite_or_none(
                hist.minimum if hist.minimum is not None else math.nan
            ),
            "max": _finite_or_none(
                hist.maximum if hist.maximum is not None else math.nan
            ),
        }
        for q in HISTOGRAM_PERCENTILES:
            out[f"p{q}"] = _finite_or_none(hist.percentile(q))
        return out

    @staticmethod
    def _rate_summary(rate: RateMonitor) -> dict:
        return {
            "count": rate.count,
            "total_amount": _finite_or_none(rate.total_amount),
            "elapsed": _finite_or_none(rate.elapsed),
            "event_rate": _finite_or_none(rate.event_rate),
            "amount_rate": _finite_or_none(rate.amount_rate),
        }

    def __repr__(self) -> str:
        return (
            f"MetricRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)}, "
            f"rates={len(self._rates)})"
        )
