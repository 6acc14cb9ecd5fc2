"""MetricRegistry unit tests: creation, federation, summaries."""

from __future__ import annotations

import json

import pytest

from repro.des.monitor import RateMonitor, TallyMonitor, TimeWeightedMonitor
from repro.obs import MetricError, MetricRegistry


class ManualClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def registry(clock):
    return MetricRegistry(clock)


# -- counters ----------------------------------------------------------------


class _Bus:
    def __init__(self):
        self.tx_frames = 0


def test_attached_counter_reads_its_source_at_summary_time(registry):
    bus = _Bus()
    registry.attach("bus.tx_frames", lambda: bus.tx_frames)
    bus.tx_frames = 4
    assert registry.summary()["counters"]["bus.tx_frames"] == 4
    bus.tx_frames += 1
    assert registry.summary()["counters"]["bus.tx_frames"] == 5


def test_attaching_a_counter_name_twice_is_rejected(registry):
    registry.attach("bus.tx_frames", lambda: 0)
    with pytest.raises(MetricError, match="already registered as a counter"):
        registry.attach("bus.tx_frames", lambda: 1)


def test_creation_is_idempotent_per_name(registry):
    assert registry.gauge("g") is registry.gauge("g")
    assert registry.histogram("h") is registry.histogram("h")
    assert registry.rate("r") is registry.rate("r")


def test_cross_kind_name_collision_rejected(registry):
    registry.attach("x", lambda: 0)
    for factory in (registry.gauge, registry.histogram, registry.rate):
        with pytest.raises(MetricError, match="already registered as a counter"):
            factory("x")
    with pytest.raises(MetricError):
        registry.attach("", lambda: 0)


# -- gauges use the injected clock ------------------------------------------


def test_gauge_time_average_follows_injected_clock(clock, registry):
    gauge = registry.gauge("q.depth")
    gauge.set(2)             # depth 2 starting at t=0
    clock.now = 4.0
    gauge.set(0)             # back to 0 at t=4
    clock.now = 8.0
    summary = registry.summary()["gauges"]["q.depth"]
    assert summary["value"] == 0
    assert summary["integral"] == pytest.approx(8.0)
    assert summary["time_average"] == pytest.approx(1.0)


# -- federation of externally-owned monitors --------------------------------


def test_attach_routes_by_monitor_type(clock, registry):
    gauge = TimeWeightedMonitor(ManualClock(), name="util")
    hist = TallyMonitor(name="lat")
    rate = RateMonitor(ManualClock(), name="fps")
    registry.attach("bus.utilization", gauge)
    registry.attach("op.latency", hist)
    registry.attach("bus.frame_rate", rate)
    summary = registry.summary()
    assert "bus.utilization" in summary["gauges"]
    assert "op.latency" in summary["histograms"]
    assert "bus.frame_rate" in summary["rates"]
    with pytest.raises(MetricError):
        registry.attach("bad", object())
    with pytest.raises(MetricError):
        registry.attach("bus.utilization", hist)  # name already a gauge


def test_reattaching_a_monitor_names_its_kind(registry):
    gauge = TimeWeightedMonitor(ManualClock(), name="util")
    registry.attach("bus.utilization", gauge)
    with pytest.raises(MetricError) as excinfo:
        registry.attach("bus.utilization", gauge)
    assert "already registered as a gauge" in str(excinfo.value)
    assert "another kind" not in str(excinfo.value)


# -- summaries ---------------------------------------------------------------


def test_histogram_summary_fields(registry):
    hist = registry.histogram("txn.seconds")
    for value in [1.0, 2.0, 3.0, 4.0]:
        hist.observe(value)
    out = registry.summary()["histograms"]["txn.seconds"]
    assert out["count"] == 4
    assert out["mean"] == pytest.approx(2.5)
    assert out["min"] == 1.0 and out["max"] == 4.0
    assert set(out) >= {"p50", "p90", "p99", "stddev"}


def test_empty_metrics_summarise_to_json_safe_values(registry):
    registry.attach("c", lambda: 0)
    registry.gauge("g")
    registry.histogram("h")
    registry.rate("r")
    summary = registry.summary()
    # must serialise under allow_nan=False (NaNs normalised to None)
    json.dumps(summary, allow_nan=False)
    assert summary["counters"]["c"] == 0
    assert summary["histograms"]["h"]["count"] == 0
    assert summary["histograms"]["h"]["mean"] is None


def test_summary_names_sorted(registry):
    for name in ("b", "a", "c"):
        registry.attach(name, lambda: 0)
    assert list(registry.summary()["counters"]) == ["a", "b", "c"]


def test_rate_summary(clock, registry):
    rate = registry.rate("bytes")
    clock.now = 0.0
    rate.tick(10)
    clock.now = 5.0
    rate.tick(10)
    out = registry.summary()["rates"]["bytes"]
    assert out["count"] == 2
    assert out["total_amount"] == 20
    assert out["event_rate"] == pytest.approx(2 / 5.0)
    assert out["amount_rate"] == pytest.approx(4.0)
