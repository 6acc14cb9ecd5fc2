"""Discrete-event simulation kernel (the NS-2 substitute).

The paper models the TpWIRE bus inside Network Simulator 2, whose core is a
discrete-event scheduler plus a small process/agent runtime.  This package
provides the same primitives in pure Python:

* :class:`~repro.des.simulator.Simulator` — the event loop (``now``,
  ``after``, ``at``, ``run``),
* generator-based processes (:class:`~repro.des.process.Process`) with
  waitables (:class:`~repro.des.process.Timeout`,
  :class:`~repro.des.process.SimEvent`),
* a FIFO :class:`~repro.des.resource.Resource` lock and an unbounded
  :class:`~repro.des.resource.Store`,
* a binary-heap pending-event queue
  (:class:`~repro.des.scheduler.HeapScheduler`),
* deterministic per-component random streams and statistics monitors
  (tracing lives in :mod:`repro.obs`).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.des.errors": ("SimulationError", "SchedulerError"),
    "repro.des.event": ("Event", "EventState"),
    "repro.des.scheduler": ("HeapScheduler",),
    "repro.des.simulator": ("Simulator",),
    "repro.des.process": ("Process", "Timeout", "SimEvent", "Waitable"),
    "repro.des.resource": ("Resource", "Store"),
    "repro.des.random_streams": ("StreamRegistry",),
    "repro.des.monitor": ("TallyMonitor", "TimeWeightedMonitor", "RateMonitor"),
}

__all__ = [
    "SimulationError",
    "SchedulerError",
    "Event",
    "EventState",
    "HeapScheduler",
    "Simulator",
    "Process",
    "Timeout",
    "SimEvent",
    "Waitable",
    "Resource",
    "Store",
    "StreamRegistry",
    "TallyMonitor",
    "TimeWeightedMonitor",
    "RateMonitor",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
