"""Exception hierarchy for the discrete-event kernel."""


class SimulationError(Exception):
    """Base class for every error raised by the simulation kernel."""


class SchedulerError(SimulationError):
    """Raised on scheduler misuse (scheduling in the past, re-entrant run)."""


class StopSimulation(Exception):
    """Internal control-flow exception used by ``Simulator.stop``."""
