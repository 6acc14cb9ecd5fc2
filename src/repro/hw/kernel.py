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

Timed delta steps
-----------------

A timed wake-up (:meth:`HwKernel.notify_after`, :meth:`HwKernel.notify_at`)
or a timed write (:meth:`HwKernel.write_after`) is one ordinary
priority-0 event whose callback runs its delta step inline, instead of
queueing a second, delta-priority event for the same instant.  This
fires the same callbacks in the same order.  A priority-0 entry at time
t pops only after every :attr:`~HwKernel.DELTA_PRIORITY` entry at t has
popped, and only delta steps use that priority, so when the entry fires
no delta step is pending, and the one it would queue would be the very
next pop.  Later entries draw lower sequence numbers than they would
have, which leaves their order among themselves unchanged.

Likewise a signal written while a step runs rides that step's update
phase: the step queues a follow-up delta only when a process is left
runnable, rather than on every write, so no empty delta step is ever
dispatched.
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
        #: True from the moment a delta step is queued until it has run.
        self._delta_scheduled = False
        self.delta_count = 0

    def make_runnable(self, process) -> None:
        """Queue a process for the next evaluate phase."""
        if process in self._runnable_set:
            return
        self._runnable.append(process)
        self._runnable_set.add(process)
        if not self._delta_scheduled:
            self._schedule_delta()

    def request_update(self, signal: "Signal") -> None:
        """Queue a signal for the next update phase.

        A signal requests once per pending value (``Signal.write`` keeps
        that flag), so the queue needs no duplicate check."""
        self._pending_updates.append(signal)
        if not self._delta_scheduled:
            self._schedule_delta()

    # -- timed delta steps ---------------------------------------------------

    def notify_after(self, delay: float, process) -> None:
        """Resume a process after a timed wait."""
        self.sim.call_after(delay, self._timed_wake, process)

    def notify_at(self, time: float, process):
        """Resume a process at absolute ``time``; returns the cancellable
        :class:`~repro.des.event.Event`."""
        return self.sim.at(time, self._timed_wake, process)

    def write_after(self, delay: float, signal: "Signal", value) -> None:
        """Write ``value`` to ``signal`` after ``delay``; it commits in the
        update phase of that instant's first delta step."""
        self.sim.call_after(delay, self._timed_write, signal, value)

    def _timed_wake(self, process) -> None:
        assert not self._delta_scheduled, "timed wake with a delta pending"
        self._delta_scheduled = True
        self._runnable.append(process)
        self._runnable_set.add(process)
        self._delta_step()

    def _timed_write(self, signal: "Signal", value) -> None:
        assert not self._delta_scheduled, "timed write with a delta pending"
        self._delta_scheduled = True
        signal.write(value)
        self._delta_step()

    # -- delta machinery -----------------------------------------------------

    def _schedule_delta(self) -> None:
        self._delta_scheduled = True
        self.sim.call_at(
            self.sim.now, self._delta_step, priority=self.DELTA_PRIORITY
        )

    def _delta_step(self) -> None:
        # ``_delta_scheduled`` stays set while the step runs: writes made
        # during evaluate commit in this step's update phase, and wake-ups
        # made in either phase are queued once, below.
        self.delta_count += 1
        # Evaluate phase.
        runnable, self._runnable = self._runnable, []
        self._runnable_set.clear()
        for process in runnable:
            process.run()
        # Update phase.
        updates, self._pending_updates = self._pending_updates, []
        for signal in updates:
            signal.apply_update()
        if self._runnable or self._pending_updates:
            self._schedule_delta()
        else:
            self._delta_scheduled = False
