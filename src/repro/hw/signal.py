"""Signals and wait conditions (the ``sc_signal`` analog).

A signal's :meth:`write` does not take effect immediately: the new value
commits in the update phase of the current delta cycle, and sensitive
processes observe it one delta later — the SystemC semantics that avoid
evaluation-order races between concurrently clocked processes.

Each signal also keeps a short log of its committed transitions, stamped
with the key of the step that committed them (see
:mod:`repro.hw.kernel`), and calls its commit listeners as each one
commits.  A reader that knows the keys of its sample instants can take
all of a frame's samples at once, after the fact (:meth:`Signal.values_at`),
with the answer a wake-up at each sample would have read.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.des.errors import SimulationError

#: Log stamp of a signal's initial value: before every key.
_INITIAL = (float("-inf"),)


class Signal:
    """A delta-cycle signal with change and falling-edge notification."""

    #: Transitions each signal remembers.  Readers look back over one
    #: TpWIRE frame, which commits at most 17 on a line (16 bits and the
    #: return to idle).
    LOG_DEPTH = 20

    def __init__(self, kernel, initial: Any = 0, name: str = ""):
        self.kernel = kernel
        self.name = name or "signal"
        self._value = initial
        self._pending = initial
        self._has_pending = False
        self._change_waiters: list = []     # one-shot thread resumptions
        self._neg_waiters: list = []
        self._listeners: list[Callable[[tuple, Any], None]] = []
        #: ``(key, value)`` per committed transition, oldest first.
        self._log: deque = deque([(_INITIAL, initial)], maxlen=self.LOG_DEPTH)

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
        key = self.kernel.key
        self._log.append((key, new))
        for listener in self._listeners:
            listener(key, new)
        if self._change_waiters or self._neg_waiters:
            self._notify(old, new)

    # -- transition log ---------------------------------------------------------

    @property
    def last_change_time(self) -> Optional[float]:
        """When the last transition committed (``None`` if none has)."""
        key = self._log[-1][0]
        return None if key is _INITIAL else key[0]

    def on_commit(self, listener: Callable[[tuple, Any], None]) -> None:
        """Call ``listener(key, value)`` as each transition commits, in
        the update phase of the step whose key is ``key``."""
        self._listeners.append(listener)

    def values_at(self, keys: list) -> list:
        """The committed value each of ``keys`` (ascending, none after the
        running step) would have read: a sample sees a transition whose
        step's key is lower than its own."""
        values = [None] * len(keys)
        index = len(keys) - 1
        for key, value in reversed(self._log):
            while key < keys[index]:
                values[index] = value
                index -= 1
                if index < 0:
                    return values
        raise SimulationError(
            f"{self.name}: the transition log no longer reaches {keys[0][0]!r}"
        )

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


class wait_key(WaitCondition):
    """Resume as the timed event ``key`` (see :mod:`repro.hw.kernel`): at
    ``key[0]``, in the place among same-instant events its key gives it."""

    def __init__(self, key: tuple):
        self.key = key

    def arm(self, process) -> None:
        process.kernel.wake_at(self.key, process)


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
