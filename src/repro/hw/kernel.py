"""Delta-cycle kernel with SystemC evaluate/update semantics.

The kernel piggybacks on a :class:`repro.des.Simulator`: every delta step
is one high-priority event at the current simulation time.  Within a step:

1. *evaluate* — every runnable thread process resumes until its next
   ``yield``;
2. *update* — signals written during evaluation commit their new values;
   value changes notify sensitive processes, which become runnable in the
   *next* delta step.

Steps repeat at the same timestamp until no process is runnable and no
update is pending, then simulated time advances — exactly SystemC's
scheduler contract, which is what makes the bit-level TpWIRE PHY race-free.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.signal import Signal


class HwKernel:
    """Evaluate/update scheduler layered on the event kernel."""

    #: Event priority of delta steps: below normal events so that all
    #: deltas at time t settle before ordinary model events at t run.
    DELTA_PRIORITY = -10

    def __init__(self, sim):
        self.sim = sim
        self._runnable: list = []
        self._runnable_set: set = set()
        self._pending_updates: list["Signal"] = []
        self._pending_update_set: set = set()
        self._delta_scheduled = False
        self.delta_count = 0
        self.processes: list = []

    # -- registration ------------------------------------------------------

    def register_process(self, process) -> None:
        self.processes.append(process)

    def make_runnable(self, process) -> None:
        """Queue a process for the next evaluate phase."""
        if id(process) in self._runnable_set:
            return
        self._runnable.append(process)
        self._runnable_set.add(id(process))
        self._schedule_delta()

    def request_update(self, signal: "Signal") -> None:
        """Queue a signal for the next update phase."""
        if id(signal) in self._pending_update_set:
            return
        self._pending_updates.append(signal)
        self._pending_update_set.add(id(signal))
        self._schedule_delta()

    def notify_after(self, delay: float, process) -> None:
        """Resume a process after a timed wait."""
        self.sim.call_after(delay, self.make_runnable, process)

    # -- delta machinery -----------------------------------------------------

    def _schedule_delta(self) -> None:
        if self._delta_scheduled:
            return
        self._delta_scheduled = True
        self.sim.call_at(
            self.sim.now, self._delta_step, priority=self.DELTA_PRIORITY
        )

    def _delta_step(self) -> None:
        self._delta_scheduled = False
        self.delta_count += 1
        # Evaluate phase.
        runnable, self._runnable = self._runnable, []
        self._runnable_set.clear()
        for process in runnable:
            process.run()
        # Update phase.
        updates, self._pending_updates = self._pending_updates, []
        self._pending_update_set.clear()
        for signal in updates:
            signal.apply_update()

    def settle(self) -> None:
        """Run all deltas pending at the current time (for tests)."""
        while self._delta_scheduled:
            # The scheduled event will fire when the sim runs; for direct
            # settling outside a run loop, execute steps inline.
            self._delta_scheduled = False
            self.delta_count += 1
            runnable, self._runnable = self._runnable, []
            self._runnable_set.clear()
            for process in runnable:
                process.run()
            updates, self._pending_updates = self._pending_updates, []
            self._pending_update_set.clear()
            for signal in updates:
                signal.apply_update()
            if self._runnable or self._pending_updates:
                self._delta_scheduled = True
