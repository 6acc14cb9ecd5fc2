"""Signals and wait conditions (the ``sc_signal`` analog).

A signal's :meth:`write` does not take effect immediately: the new value
commits in the update phase of the current delta cycle, and sensitive
processes observe it one delta later — the SystemC semantics that avoid
evaluation-order races between concurrently clocked processes.
"""

from __future__ import annotations

from typing import Any, Optional


class Signal:
    """A delta-cycle signal with change and falling-edge notification."""

    def __init__(self, kernel, initial: Any = 0, name: str = ""):
        self.kernel = kernel
        self.name = name or "signal"
        self._value = initial
        self._pending = initial
        self._has_pending = False
        self._change_waiters: list = []     # one-shot thread resumptions
        self._neg_waiters: list = []
        self.last_change_time: Optional[float] = None

    # -- access -------------------------------------------------------------

    @property
    def value(self) -> Any:
        return self._value

    def read(self) -> Any:
        return self._value

    def write(self, value: Any) -> None:
        """Schedule ``value`` to commit in the next update phase."""
        self._pending = value
        if not self._has_pending:
            self._has_pending = True
            self.kernel.request_update(self)

    def apply_update(self) -> None:
        """Commit the pending value (called by the kernel only)."""
        self._has_pending = False
        if self._pending == self._value:
            return
        old, new = self._value, self._pending
        self._value = new
        self.last_change_time = self.kernel.sim.now
        self._notify(old, new)

    # -- sensitivity ----------------------------------------------------------

    def wait_change_once(self, process) -> None:
        self._change_waiters.append(process)

    def wait_negedge_once(self, process) -> None:
        self._neg_waiters.append(process)

    def cancel_negedge_wait(self, process) -> None:
        self._neg_waiters.remove(process)

    def _notify(self, old: Any, new: Any) -> None:
        kernel = self.kernel
        waiters, self._change_waiters = self._change_waiters, []
        for process in waiters:
            kernel.make_runnable(process)
        falling = bool(old) and not bool(new)
        if falling and self._neg_waiters:
            waiters, self._neg_waiters = self._neg_waiters, []
            for process in waiters:
                kernel.make_runnable(process)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, value={self._value!r})"


# -- wait conditions yielded by thread processes -----------------------------


class WaitCondition:
    """Base class of objects thread processes yield."""

    def arm(self, process) -> None:
        raise NotImplementedError


class wait_change(WaitCondition):
    """Resume when the signal's committed value changes."""

    def __init__(self, signal: Signal):
        self.signal = signal

    def arm(self, process) -> None:
        self.signal.wait_change_once(process)


class wait_negedge(WaitCondition):
    """Resume on a truthy -> falsy transition."""

    def __init__(self, signal: Signal):
        self.signal = signal

    def arm(self, process) -> None:
        self.signal.wait_negedge_once(process)


class wait_time(WaitCondition):
    """Resume after a fixed amount of simulated time."""

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.delay = delay

    def arm(self, process) -> None:
        process.kernel.notify_after(self.delay, process)


class wait_until(WaitCondition):
    """Resume at an absolute simulated time."""

    def __init__(self, time: float):
        self.time = time

    def arm(self, process) -> None:
        process.kernel.notify_at(self.time, process)


class wait_negedge_until(WaitCondition):
    """Resume on a truthy -> falsy transition or at absolute ``time``,
    whichever comes first; the trigger that loses is withdrawn, so it
    resumes nothing later.

    The resumed thread tells the two apart by the signal's level: it
    is falsy after the edge and still truthy at the timeout.
    """

    def __init__(self, signal: Signal, time: float):
        self.signal = signal
        self.time = time

    def arm(self, process) -> None:
        # The condition itself waits in place of the thread (the kernel
        # only calls ``run()``), so whichever trigger fires first can
        # withdraw the other before the thread resumes.
        self._process = process
        self.signal.wait_negedge_once(self)
        self._timer = process.kernel.notify_at(self.time, self)

    def run(self) -> None:
        # Dropping the timer breaks the condition <-> event reference
        # cycle, so both are freed without the cyclic collector.
        timer, self._timer = self._timer, None
        if timer.pending:
            self._process.kernel.sim.cancel(timer)
        else:
            self.signal.cancel_negedge_wait(self)
        self._process.run()
