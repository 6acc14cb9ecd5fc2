"""Delta-cycle kernel and signals: evaluate/update semantics."""

import pytest

from repro.des import HeapScheduler, Simulator
from repro.des.errors import SimulationError
from repro.hw import HwKernel, HwModule, Signal, wait_change, wait_negedge, wait_time
from repro.hw.signal import wait_negedge_until, wait_until


@pytest.fixture
def world():
    sim = Simulator()
    return sim, HwKernel(sim)


class TestSignalSemantics:
    def test_write_commits_in_update_phase(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        observed = []

        class Watcher(HwModule):
            def build(self):
                self.thread(self.observe)

            def observe(self):
                while True:
                    yield wait_change(sig)
                    observed.append(sig.read())

        Watcher(kernel)
        sig.write(5)
        assert sig.read() == 0  # not yet committed
        sim.run()
        assert sig.read() == 5
        assert observed == [5]

    def test_last_write_in_delta_wins(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        sig.write(1)
        sig.write(2)
        sim.run()
        assert sig.read() == 2

    def test_no_notification_for_same_value(self, world):
        sim, kernel = world
        sig = Signal(kernel, 7)
        fired = []

        class Watcher(HwModule):
            def build(self):
                self.thread(self.watch)

            def watch(self):
                yield wait_change(sig)
                fired.append(1)

        Watcher(kernel)
        sig.write(7)
        sim.run()
        assert fired == []

    def test_swap_through_signals_is_race_free(self, world):
        """The classic two-process swap that breaks without delta cycles."""
        sim, kernel = world
        a = Signal(kernel, 1)
        b = Signal(kernel, 2)
        clk = Signal(kernel, 0)

        class Swapper(HwModule):
            def build(self):
                self.thread(self.move_a)
                self.thread(self.move_b)

            def move_a(self):
                yield wait_change(clk)
                a.write(b.read())

            def move_b(self):
                yield wait_change(clk)
                b.write(a.read())

        Swapper(kernel)
        clk.write(1)
        sim.run()
        assert (a.read(), b.read()) == (2, 1)

    def test_last_change_time(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        assert sig.last_change_time is None
        sim.after(3.0, sig.write, 1)
        sim.run()
        assert sig.last_change_time == 3.0


class TestTransitionLog:
    def _drive(self, kernel, sig, levels):
        """Commit ``levels`` at t = 1, 2, ...; returns each step's key."""
        keys = [kernel.child_key(float(t)) for t in range(1, len(levels) + 1)]
        for key, level in zip(keys, levels):
            kernel.write_at(key, sig, level)
        return keys

    def test_samples_read_the_value_committed_before_them(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        self._drive(kernel, sig, [1, 0, 1])
        sim.run()
        samples = [(t, 0, (), 0) for t in (0.5, 1.5, 2.5, 3.5)]
        assert sig.values_at(samples) == [0, 1, 0, 1]

    def test_a_sample_on_an_edge_sees_it_only_if_keyed_after_it(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        edge, = self._drive(kernel, sig, [1])
        sim.run()
        before = (1.0, 0, edge[2], edge[3] - 1)
        after = (1.0, 0, edge[2], edge[3] + 1)
        assert sig.values_at([before]) == [0]
        assert sig.values_at([after]) == [1]

    def test_a_sample_older_than_the_log_raises(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        self._drive(kernel, sig, [1, 0] * Signal.LOG_DEPTH)
        sim.run()
        with pytest.raises(SimulationError):
            sig.values_at([(0.5, 0, (), 0)])


class TestThreadProcesses:
    def test_wait_time(self, world):
        sim, kernel = world
        log = []

        class Timed(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                yield wait_time(1.5)
                log.append(sim.now)
                yield wait_time(1.5)
                log.append(sim.now)

        Timed(kernel)
        sim.run()
        assert log == [1.5, 3.0]

    def test_wait_change_resumes_on_commit(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        log = []

        class Waiter(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                yield wait_change(sig)
                log.append((sim.now, sig.read()))

        Waiter(kernel)
        sim.after(2.0, sig.write, 9)
        sim.run()
        assert log == [(2.0, 9)]

    def test_wait_negedge_ignores_posedge(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        log = []

        class EdgeWaiter(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                yield wait_negedge(sig)
                log.append(sim.now)

        EdgeWaiter(kernel)
        sim.after(1.0, sig.write, 1)   # posedge: ignored
        sim.after(2.0, sig.write, 0)   # negedge: fires
        sim.run()
        assert log == [2.0]

    def test_thread_completion(self, world):
        sim, kernel = world

        class Finite(HwModule):
            def build(self):
                self.proc = self.thread(self.run)

            def run(self):
                yield wait_time(1.0)

        module = Finite(kernel)
        sim.run()
        assert module.proc.finished

    def test_thread_yielding_garbage_raises(self, world):
        sim, kernel = world

        class Bad(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                yield 42

        Bad(kernel)
        with pytest.raises(TypeError):
            sim.run()

    def test_wait_time_validation(self):
        with pytest.raises(ValueError):
            wait_time(-1.0)


class TestDeltaCycles:
    def test_chained_updates_take_multiple_deltas(self, world):
        sim, kernel = world
        a = Signal(kernel, 0)
        b = Signal(kernel, 0)

        class Chain(HwModule):
            def build(self):
                self.thread(self.copy)

            def copy(self):
                yield wait_change(a)
                b.write(a.read())

        Chain(kernel)
        a.write(3)
        sim.run()
        assert b.read() == 3
        assert kernel.delta_count >= 2


class _CountingHeap(HeapScheduler):
    """The default heap, counting the entries it hands to the run loop."""

    def __init__(self):
        super().__init__()
        self.events = 0

    def pop_entry(self):
        entry = super().pop_entry()
        if entry is not None:
            self.events += 1
        return entry


class _Probe:
    """A bare process: logs the signal's committed level when resumed."""

    def __init__(self, label, signal, log):
        self.label, self.signal, self.log = label, signal, log

    def run(self):
        self.log.append((self.label, self.signal.read()))


class TestTimedDeltaSteps:
    def test_timed_wake_and_timed_write_at_one_instant_keep_scheduling_order(self):
        heap = _CountingHeap()
        sim = Simulator(scheduler=heap)
        kernel = HwKernel(sim)
        sig = Signal(kernel, 0)
        log = []
        kernel.notify_after(1.0, _Probe("before", sig, log))
        kernel.write_at(kernel.child_key(1.0), sig, 1)
        kernel.notify_after(1.0, _Probe("after", sig, log))
        sim.run()
        # The write commits in its own delta step, between the two wakes.
        assert log == [("before", 0), ("after", 1)]
        # One queue entry each: every delta step ran inside its entry.
        assert heap.events == 3
        assert kernel.delta_count == 3

    def test_wake_after_a_commit_still_takes_its_own_delta(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        log = []

        class Watcher(HwModule):
            def build(self):
                self.thread(self.watch)

            def watch(self):
                yield wait_change(sig)
                log.append((sim.now, kernel.delta_count, sig.read()))

        Watcher(kernel)
        kernel.write_at(kernel.child_key(2.0), sig, 1)
        sim.run()
        # Start-up delta, the write's delta, then the watcher one delta
        # after the commit, at the same instant.
        assert log == [(2.0, 3, 1)]

    def test_write_during_evaluate_needs_no_delta_of_its_own(self):
        heap = _CountingHeap()
        sim = Simulator(scheduler=heap)
        kernel = HwKernel(sim)
        sig = Signal(kernel, 0)

        class Driver(HwModule):
            def build(self):
                self.thread(self.drive)

            def drive(self):
                for level in (1, 0, 1):
                    yield wait_time(1.0)
                    sig.write(level)

        Driver(kernel)
        sim.run()
        assert sig.read() == 1
        # The start-up delta, then one entry per timed wake: each write
        # commits in the update phase of the step that made it.
        assert heap.events == 1 + 3
        assert sim.pending_events == 0

    def test_wait_until_resumes_at_the_absolute_time(self, world):
        sim, kernel = world
        log = []

        class Timed(HwModule):
            def build(self):
                self.thread(self.run)

            def run(self):
                yield wait_time(0.5)
                yield wait_until(2.25)
                log.append(sim.now)

        Timed(kernel)
        sim.run()
        assert log == [2.25]


class TestWaitNegedgeUntil:
    def _waiter(self, kernel, sig, until, log):
        sim = kernel.sim

        class Waiter(HwModule):
            def build(self):
                self.proc = self.thread(self.run)

            def run(self):
                yield wait_negedge_until(sig, until)
                log.append((sim.now, sig.read()))

        return Waiter(kernel)

    def test_edge_first_resumes_once_and_the_timer_fires_nothing(self, world):
        sim, kernel = world
        sig = Signal(kernel, 1)
        log = []
        waiter = self._waiter(kernel, sig, 5.0, log)
        sim.after(2.0, sig.write, 0)
        sim.run()
        assert log == [(2.0, 0)]
        assert waiter.proc.finished
        # The withdrawn timer at 5.0 never advanced the clock.
        assert sim.now < 5.0
        assert sim.pending_events == 0

    def test_timeout_first_withdraws_the_edge_wait(self, world):
        sim, kernel = world
        sig = Signal(kernel, 1)
        log = []
        self._waiter(kernel, sig, 5.0, log)
        sim.after(6.0, sig.write, 0)
        sim.run()
        # Resumed at the timeout with the line still high; the later
        # edge finds no waiter.
        assert log == [(5.0, 1)]
        assert sig.read() == 0

    def test_posedge_does_not_end_the_wait(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        log = []
        self._waiter(kernel, sig, 5.0, log)
        sim.after(1.0, sig.write, 1)
        sim.after(3.0, sig.write, 0)
        sim.run()
        assert log == [(3.0, 0)]
