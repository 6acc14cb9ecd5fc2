"""ASCII activity timelines."""

import pytest

from repro.analysis.timeline import (
    RAMP,
    activity_timeline,
    bucket_counts,
    event_summary,
    render_strip,
)
from repro.des import Simulator
from repro.obs import Observability, TraceEvent


def rec(time, name="tx"):
    return TraceEvent(time, 0, "tpwire", name)


class TestBucketCounts:
    def test_uniform_events(self):
        records = [rec(t / 10) for t in range(100)]
        counts = bucket_counts(records, 0.0, 10.0, buckets=10)
        assert counts == [10] * 10

    def test_kind_filter(self):
        records = [rec(1.0, "a"), rec(1.0, "b"), rec(1.0, "a")]
        counts = bucket_counts(records, 0.0, 2.0, buckets=2, names=["a"])
        assert counts == [0, 2]  # t=1.0 falls in the [1, 2) bucket

    def test_out_of_window_ignored(self):
        records = [rec(-1.0), rec(5.0), rec(100.0)]
        counts = bucket_counts(records, 0.0, 10.0, buckets=2)
        assert sum(counts) == 1

    def test_edge_times_land_in_last_bucket(self):
        records = [rec(9.999999)]
        counts = bucket_counts(records, 0.0, 10.0, buckets=10)
        assert counts[-1] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            bucket_counts([], 1.0, 1.0)
        with pytest.raises(ValueError):
            bucket_counts([], 0.0, 1.0, buckets=0)


class TestRenderStrip:
    def test_empty_is_blank(self):
        assert render_strip([0, 0, 0]) == "   "

    def test_peak_gets_densest_char(self):
        strip = render_strip([1, 5, 10])
        assert strip[2] == RAMP[-1]
        assert strip[0] != RAMP[-1]

    def test_monotone_density(self):
        strip = render_strip([1, 3, 6, 10])
        levels = [RAMP.index(c) for c in strip]
        assert levels == sorted(levels)


class TestTimeline:
    def test_labelled_line(self):
        line = activity_timeline([rec(0.5)], 0.0, 1.0, buckets=4, label="bus")
        assert line.startswith("bus 0s |")
        assert line.endswith("| 1s")

    def test_real_simulation_trace(self):
        """A traced bus run renders busy-then-idle correctly."""
        from repro.tpwire import BusTiming, TpwireBus, TpwireMaster, TpwireSlave

        obs = Observability()
        sim = Simulator(obs=obs)
        timing = BusTiming(bit_rate=2400)
        bus = TpwireBus(sim, timing, obs=obs)
        bus.attach_slave(TpwireSlave(sim, 1, timing))
        master = TpwireMaster(sim, bus)
        master.run_op(master.op_write_bytes(1, 0, bytes(20)))
        sim.run(until=2.0)
        strip = render_strip(
            bucket_counts(obs.tracer.events, 0.0, 2.0, buckets=10, names=["tx"])
        )
        # Activity at the start, silence at the end.
        assert strip[0] != " "
        assert strip[-1] == " "


class TestSummary:
    def test_counts(self):
        records = [rec(0.0), rec(1.0), rec(2.0, "other")]
        summary = event_summary(records)
        assert summary["total"] == 3
        assert summary["by_cat_name"][("tpwire", "tx")] == 2
        assert summary["first_time"] == 0.0
        assert summary["last_time"] == 2.0

    def test_empty(self):
        summary = event_summary([])
        assert summary["total"] == 0
        assert summary["first_time"] is None
