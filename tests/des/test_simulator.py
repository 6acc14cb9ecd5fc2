"""Simulator run loop: scheduling, clock, stop conditions."""

import pytest

from repro.des import Simulator
from repro.des.errors import SchedulerError


@pytest.fixture(params=["heap"])
def sim():
    return Simulator()


class TestScheduling:
    def test_after_fires_in_order(self, sim):
        log = []
        sim.after(2.0, log.append, "b")
        sim.after(1.0, log.append, "a")
        sim.after(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_at_absolute_time(self, sim):
        seen = []
        sim.at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_scheduling_in_past_raises(self, sim):
        sim.after(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulerError):
            sim.at(0.5, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SchedulerError):
            sim.after(-1.0, lambda: None)

    def test_nested_scheduling(self, sim):
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.after(1.0, inner)

        def inner():
            log.append(("inner", sim.now))

        sim.after(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]

    def test_cancel_pending_event(self, sim):
        log = []
        event = sim.after(1.0, log.append, "x")
        assert sim.cancel(event) is True
        sim.run()
        assert log == []

    def test_cancel_fired_event_returns_false(self, sim):
        event = sim.after(1.0, lambda: None)
        sim.run()
        assert sim.cancel(event) is False

    def test_same_time_fifo(self, sim):
        log = []
        for i in range(10):
            sim.after(1.0, log.append, i)
        sim.run()
        assert log == list(range(10))

    def test_priority_beats_seq_at_same_time(self, sim):
        log = []
        sim.after(1.0, log.append, "normal")
        sim.after(1.0, log.append, "urgent", priority=-1)
        sim.run()
        assert log == ["urgent", "normal"]

    def test_zero_delay_chain_queues_behind_same_time_peers(self, sim):
        # chain(0) fires first (lower seq), then the already-queued peer,
        # then each zero-delay link in schedule order: a link scheduled
        # into the current instant gets a fresh seq, so it never jumps
        # ahead of events that were already due.
        log = []

        def chain(n):
            log.append(n)
            if n < 5:
                sim.call_after(0.0, chain, n + 1)

        sim.after(1.0, chain, 0)
        sim.after(1.0, log.append, "peer")
        sim.run()
        assert log == [0, "peer", 1, 2, 3, 4, 5]

    def test_priority_wins_among_zero_delay_events(self, sim):
        log = []

        def first():
            log.append("first")
            sim.after(0.0, log.append, "normal")
            sim.after(0.0, log.append, "urgent", priority=-1)

        sim.after(1.0, first)
        sim.run()
        assert log == ["first", "urgent", "normal"]


class TestRunLoop:
    def test_run_until_advances_clock_exactly(self, sim):
        sim.after(1.0, lambda: None)
        end = sim.run(until=10.0)
        assert end == 10.0
        assert sim.now == 10.0

    def test_run_until_does_not_fire_later_events(self, sim):
        log = []
        sim.after(5.0, log.append, "early")
        sim.after(15.0, log.append, "late")
        sim.run(until=10.0)
        assert log == ["early"]
        assert sim.pending_events == 1

    def test_run_resumes_after_until(self, sim):
        log = []
        sim.after(15.0, log.append, "late")
        sim.run(until=10.0)
        sim.run()
        assert log == ["late"]

    def test_stop_halts_immediately(self, sim):
        log = []
        sim.after(1.0, lambda: (log.append("a"), sim.stop()))
        sim.after(2.0, log.append, "b")
        sim.run()
        assert log == ["a"]

    def test_max_events_limit(self, sim):
        log = []
        for i in range(10):
            sim.after(float(i + 1), log.append, i)
        sim.run(max_events=3)
        assert log == [0, 1, 2]

    def test_empty_run_returns_current_time(self, sim):
        assert sim.run() == 0.0

    def test_reentrant_run_raises(self, sim):
        def recurse():
            sim.run()

        sim.after(1.0, recurse)
        with pytest.raises(SchedulerError):
            sim.run()


class TestStreams:
    def test_streams_deterministic_across_instances(self):
        a = Simulator(seed=99).stream("traffic").random()
        b = Simulator(seed=99).stream("traffic").random()
        assert a == b

    def test_streams_differ_by_name(self):
        sim = Simulator(seed=1)
        assert sim.stream("a").random() != sim.stream("b").random()

    def test_stream_is_cached(self):
        sim = Simulator()
        assert sim.stream("x") is sim.stream("x")
