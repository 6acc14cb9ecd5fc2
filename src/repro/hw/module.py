"""Hardware modules and their thread processes (``SC_THREAD``).

Subclass :class:`HwModule` and declare behaviour in ``build()``.  Thread
processes are generators that yield wait conditions::

    class Driver(HwModule):
        def build(self):
            self.thread(self.run)

        def run(self):
            while True:
                self.line.write(1)
                yield wait_time(1e-3)
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.hw.kernel import HwKernel
from repro.hw.signal import Signal, WaitCondition


class ThreadProcess:
    """A generator resumed whenever its awaited condition triggers."""

    def __init__(self, kernel: HwKernel, fn: Callable[[], Generator], name: str):
        self.kernel = kernel
        self.name = name
        self._generator = fn()
        self.finished = False

    def run(self) -> None:
        if self.finished:
            return
        try:
            condition = next(self._generator)
        except StopIteration:
            self.finished = True
            return
        if not isinstance(condition, WaitCondition):
            raise TypeError(
                f"thread {self.name!r} yielded {condition!r}; threads must "
                "yield wait conditions (wait_time, wait_change, ...)"
            )
        condition.arm(self)

    def __repr__(self) -> str:
        return f"ThreadProcess({self.name!r})"


class HwModule:
    """Base class for hardware modules."""

    def __init__(self, kernel: HwKernel, name: str = ""):
        self.kernel = kernel
        self.name = name or type(self).__name__
        self.build()

    def build(self) -> None:
        """Declare signals and processes (override)."""

    # -- declaration helpers -------------------------------------------------

    def signal(self, initial=0, name: str = "") -> Signal:
        return Signal(self.kernel, initial, name=f"{self.name}.{name or 'sig'}")

    def thread(self, fn: Callable[[], Generator], start: bool = True) -> ThreadProcess:
        """Register a thread process (a generator yielding waits)."""
        process = ThreadProcess(self.kernel, fn, f"{self.name}.{fn.__name__}")
        if start:
            self.kernel.make_runnable(process)
        return process

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
