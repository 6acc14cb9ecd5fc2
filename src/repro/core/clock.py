"""Clock abstraction.

The tuplespace engine needs time for leases and timestamps, but it must
run in three worlds: real time (the socket servers), simulated
time (the co-simulation of the paper) and controlled time (tests).  All
take a :class:`Clock`.
"""

from __future__ import annotations

import time as _time


class Clock:
    """Time source protocol: ``now()`` in seconds, monotone.

    ``sleep()`` is the matching delay primitive, so components that poll
    (e.g. :class:`repro.core.client.SpaceClient`) can take one injected
    object for both reading and pacing time — under a test clock a
    "sleep" merely advances it, keeping runs deterministic and instant.
    """

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, duration: float) -> None:
        raise NotImplementedError


class SystemClock(Clock):
    """Wall-clock time (monotonic)."""

    def now(self) -> float:
        return _time.monotonic()

    def sleep(self, duration: float) -> None:
        _time.sleep(duration)


class SimClock(Clock):
    """Simulation time of a :class:`repro.des.Simulator`."""

    def __init__(self, sim):
        self.sim = sim

    def now(self) -> float:
        return self.sim.now


class ManualClock(Clock):
    """Test clock advanced explicitly."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def sleep(self, duration: float) -> None:
        self.advance(duration)

    def advance(self, delta: float) -> float:
        if delta < 0:
            raise ValueError(f"cannot go back in time by {delta}")
        self._now += delta
        return self._now

    def set(self, value: float) -> None:
        if value < self._now:
            raise ValueError(f"cannot go back in time to {value}")
        self._now = value
