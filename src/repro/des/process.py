"""Generator-based simulation processes and waitables.

A process is a Python generator that yields *waitables*; the kernel resumes
the generator when the waitable triggers.  This is how sequential agents —
the TpWIRE master's polling loop, the tuplespace client, traffic sources —
are written::

    def client(sim, space):
        yield sim.timeout(1.0)
        space.write(entry)
        result = yield space.take_async(template)

Waitables either *succeed* with a value (delivered as the ``yield`` result)
or *fail* with an exception (raised at the ``yield`` site).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.des.errors import SimulationError


class Waitable:
    """One-shot outcome that processes can wait on."""

    # Slots keep a bare Waitable (``sim.event()``, ``TpwireBus.execute``)
    # dict-free.  Subclasses that add attributes fall back to a
    # lazily-created __dict__ as usual.
    __slots__ = ("sim", "_callbacks", "_triggered", "_ok", "_value",
                 "_exception", "__weakref__", "__dict__")

    def __init__(self, sim):
        self.sim = sim
        self._callbacks: list[Callable[["Waitable"], None]] = []
        self._triggered = False
        self._ok = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None

    # -- outcome ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("waitable has not triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("waitable has not triggered yet")
        if not self._ok:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    def succeed(self, value: Any = None) -> "Waitable":
        if self._triggered:
            raise SimulationError("waitable already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Waitable":
        if self._triggered:
            raise SimulationError("waitable already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._triggered = True
        self._ok = False
        self._exception = exception
        self._dispatch()
        return self

    # -- waiters -----------------------------------------------------------

    def add_callback(self, callback: Callable[["Waitable"], None]) -> None:
        """Run ``callback(self)`` when triggered (immediately if already)."""
        if self._triggered:
            callback(self)
        else:
            self._callbacks.append(callback)

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _fail_or_raise(self, exc: BaseException) -> None:
        """Fail waiters; re-raise when nobody waits, so that errors never
        pass silently."""
        if self._callbacks:
            self.fail(exc)
        else:
            self._triggered = True
            self._ok = False
            self._exception = exc
            raise exc


class SimEvent(Waitable):
    """A manually-triggered waitable (``sim.event()``)."""


class Timeout(Waitable):
    """Waitable that succeeds after a fixed delay.

    Nothing cancels a timeout, so it schedules itself fire-and-forget
    (``call_after``): no :class:`~repro.des.event.Event` is allocated, and
    the shared sequence counter keeps its place among same-time callbacks.
    """

    def __init__(self, sim, delay: float, value: Any = None):
        super().__init__(sim)
        self.delay = delay
        sim.call_after(delay, self.succeed, value)


class Process(Waitable):
    """A running generator process; also a waitable (join on completion).

    The process's generator return value becomes the waitable's value; an
    uncaught exception in the generator fails the waitable.  A failure with
    no registered waiter is re-raised so that errors never pass silently.
    """

    def __init__(self, sim, generator: Generator, name: Optional[str] = None):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise TypeError(f"spawn() needs a generator, got {generator!r}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # First resumption happens as its own event at the current time so
        # that spawn() returns before any process code runs.
        sim.call_after(0.0, self._step, None, None)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    # -- driving the generator -------------------------------------------

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        if self._triggered:
            return
        try:
            if throw_exc is not None:
                target = self._generator.throw(throw_exc)
            else:
                target = self._generator.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        # The kernel must forward *any* process error to its waiters;
        # _fail_or_raise re-raises when nobody waits on the process.
        except BaseException as exc:  # noqa: BLE001  # lint: disable=broad-except
            self._fail_or_raise(exc)
            return
        if not isinstance(target, Waitable):
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Waitable objects (e.g. sim.timeout(...))"
            )
            self._generator.close()
            self._fail_or_raise(exc)
            return
        target.add_callback(self._on_wait_done)

    def _on_wait_done(self, waitable: Waitable) -> None:
        if waitable.ok:
            self._step(waitable._value, None)
        else:
            self._step(None, waitable.exception)

    def __repr__(self) -> str:
        state = "done" if self._triggered else "alive"
        return f"Process({self.name!r}, {state})"

