"""Delta-cycle kernel and signals: evaluate/update semantics."""

import pytest

from repro.des import Simulator
from repro.hw import HwKernel, HwModule, Signal, wait_change, wait_negedge, wait_time


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
        sim.after(3.0, sig.write, 1)
        sim.run()
        assert sig.last_change_time == 3.0


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

    def test_settle_runs_pending_deltas(self, world):
        sim, kernel = world
        sig = Signal(kernel, 0)
        sig.write(1)
        kernel.settle()
        assert sig.read() == 1
