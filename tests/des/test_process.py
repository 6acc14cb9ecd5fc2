"""Generator processes and waitables."""

import pytest

from repro.des import SimEvent, Simulator
from repro.des.errors import SimulationError
from repro.des.process import Waitable


@pytest.fixture
def sim():
    return Simulator()


class TestTimeouts:
    def test_timeout_advances_clock(self, sim):
        log = []

        def proc():
            yield sim.timeout(2.5)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [2.5]

    def test_timeout_value_delivered(self, sim):
        got = []

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            got.append(value)

        sim.spawn(proc())
        sim.run()
        assert got == ["payload"]

    def test_sequential_timeouts_accumulate(self, sim):
        times = []

        def proc():
            for _ in range(3):
                yield sim.timeout(1.0)
                times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [1.0, 2.0, 3.0]

    def test_timeout_ties_with_callbacks_in_scheduling_order(self, sim):
        log = []

        def proc():
            timeout = sim.timeout(1.0)
            sim.after(1.0, log.append, "callback scheduled after")
            yield timeout
            log.append(("process resumed", sim.now))

        sim.after(1.0, log.append, "callback scheduled before")
        sim.spawn(proc())
        sim.run()
        assert log == [
            "callback scheduled before",
            ("process resumed", 1.0),
            "callback scheduled after",
        ]


class TestProcessLifecycle:
    def test_return_value_becomes_process_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return 42

        process = sim.spawn(proc())
        sim.run()
        assert process.value == 42

    def test_join_on_process(self, sim):
        order = []

        def child():
            yield sim.timeout(2.0)
            order.append("child-done")
            return "result"

        def parent():
            value = yield sim.spawn(child())
            order.append(("parent-saw", value))

        sim.spawn(parent())
        sim.run()
        assert order == ["child-done", ("parent-saw", "result")]

    def test_spawn_returns_before_body_runs(self, sim):
        log = []

        def proc():
            log.append("running")
            yield sim.timeout(0.0)

        sim.spawn(proc())
        assert log == []  # body starts only when the sim runs
        sim.run()
        assert log == ["running"]

    def test_exception_propagates_to_joiner(self, sim):
        caught = []

        def child():
            yield sim.timeout(1.0)
            raise ValueError("inner boom")

        def parent():
            try:
                yield sim.spawn(child())
            except ValueError as exc:
                caught.append(str(exc))

        sim.spawn(parent())
        sim.run()
        assert caught == ["inner boom"]

    def test_unobserved_exception_raises(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("unhandled boom")

        sim.spawn(proc())
        with pytest.raises(RuntimeError, match="unhandled boom"):
            sim.run()

    def test_yielding_non_waitable_fails(self, sim):
        def proc():
            yield 42

        sim.spawn(proc())
        with pytest.raises(SimulationError, match="must yield Waitable"):
            sim.run()

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(5.0)

        process = sim.spawn(proc())
        sim.run(until=1.0)
        assert process.is_alive
        sim.run()
        assert not process.is_alive


class TestSimEvent:
    def test_manual_trigger_resumes(self, sim):
        event = sim.event()
        got = []

        def waiter():
            got.append((yield event))

        sim.spawn(waiter())
        sim.after(3.0, event.succeed, "fired")
        sim.run()
        assert got == ["fired"]

    def test_already_triggered_event_resumes_immediately(self, sim):
        event = sim.event()
        event.succeed("early")
        got = []

        def waiter():
            got.append((yield event))

        sim.spawn(waiter())
        sim.run()
        assert got == ["early"]

    def test_failure_raises_at_yield(self, sim):
        event = sim.event()
        caught = []

        def waiter():
            try:
                yield event
            except KeyError as exc:
                caught.append(exc)

        sim.spawn(waiter())
        sim.after(1.0, event.fail, KeyError("nope"))
        sim.run()
        assert len(caught) == 1

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value


class TestWaitableCallbacks:
    def test_callback_after_trigger_runs_immediately(self, sim):
        w = Waitable(sim)
        w.succeed(7)
        seen = []
        w.add_callback(lambda wt: seen.append(wt.value))
        assert seen == [7]

    def test_ok_property(self, sim):
        w = Waitable(sim)
        with pytest.raises(SimulationError):
            w.ok
        w.fail(RuntimeError("x"))
        assert w.ok is False
