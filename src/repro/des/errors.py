"""Exception hierarchy for the discrete-event kernel."""


class SimulationError(Exception):
    """Base class for every error raised by the simulation kernel."""


class SchedulerError(SimulationError):
    """Raised on scheduler misuse (scheduling in the past, re-entrant run)."""


class ProcessKilled(SimulationError):
    """Raised inside a process that has been killed via ``Process.kill``."""


class Interrupted(SimulationError):
    """Raised inside a process that was interrupted while waiting.

    The interrupt cause passed to :meth:`repro.des.process.Process.interrupt`
    is available as :attr:`cause`.
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class StopSimulation(Exception):
    """Internal control-flow exception used by ``Simulator.stop``."""
