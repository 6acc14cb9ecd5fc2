"""The :class:`Observability` facade: one object to thread through a run.

Bundles a :class:`~repro.obs.tracer.Tracer`, a
:class:`~repro.obs.metrics.MetricRegistry` and a
:class:`~repro.obs.vcd.VcdRecorder` over a single injected simulation
clock.  Instrumented components accept ``obs=None`` and skip all
recording when unset, so the uninstrumented fast path stays unchanged::

    obs = Observability()
    sim = Simulator(seed=1, obs=obs)       # binds obs to sim time
    bus = TpwireBus(sim, obs=obs)
    ...
    sim.run(until=10)
    obs.metrics.summary()                   # -> nested dict
    obs.tracer.to_jsonl()                   # -> golden-trace document
    obs.vcd.render()                        # -> GTKWave waveform

The clock binds late: the first clock-owning component (usually the
:class:`~repro.des.Simulator`) calls :meth:`bind_clock`; until then the
clock reads 0.0, so pre-simulation setup events are stamped at the
origin rather than crashing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import Tracer
from repro.obs.vcd import VcdRecorder


class Observability:
    """Tracer + metrics + VCD over one simulation clock."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        trace_categories: Optional[Iterable[str]] = None,
    ):
        self._clock = clock
        self.tracer = Tracer(self.now, categories=trace_categories)
        self.metrics = MetricRegistry(self.now)
        self.vcd = VcdRecorder()

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        """Current simulation time (0.0 before a clock is bound)."""
        return self._clock() if self._clock is not None else 0.0

    @property
    def clock_bound(self) -> bool:
        return self._clock is not None

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Adopt ``clock`` as the time source; the first binder wins.

        Idempotent so every clock-owning component can bind defensively:
        a scenario's :class:`~repro.des.Simulator` and the
        :class:`~repro.core.space.TupleSpace` running on its
        :class:`~repro.core.clock.SimClock` share one timeline, and only
        the first of them actually installs the callable.
        """
        if self._clock is None:
            self._clock = clock

    # -- convenience -------------------------------------------------------

    def summary(self) -> dict:
        """Shorthand for ``self.metrics.summary()``."""
        return self.metrics.summary()

    def __repr__(self) -> str:
        return (
            f"Observability(bound={self.clock_bound}, "
            f"events={len(self.tracer)}, metrics={self.metrics!r})"
        )
