"""Traffic generators.

The paper plugs a Constant Bit Rate (CBR) generator onto a TpWIRE node to
load the bus (Section 5).  The Poisson source drives the network layer's
M/D/1 queueing check.  A generator drives any object exposing
``send_payload(size)`` — a network agent or a TpWIRE endpoint.
"""

from __future__ import annotations

import math
from typing import Optional


class TrafficSource:
    """Common start/stop machinery for generators."""

    def __init__(self, sim, agent, name: str = ""):
        self.sim = sim
        self.agent = agent
        self.name = name or type(self).__name__
        self.running = False
        self.generated_bytes = 0
        self.generated_packets = 0
        self._next_event = None

    def start(self, at: Optional[float] = None) -> None:
        """Begin generating at time ``at`` (default: now)."""
        if self.running:
            return
        self.running = True
        when = self.sim.now if at is None else at
        self._next_event = self.sim.at(when, self._emit)

    def stop(self) -> None:
        self.running = False
        if self._next_event is not None:
            self.sim.cancel(self._next_event)
            self._next_event = None

    def _emit(self) -> None:
        if not self.running:
            return
        size = self._packet_size()
        if size > 0:
            self.agent.send_payload(size)
            self.generated_bytes += size
            self.generated_packets += 1
        gap = self._next_gap()
        if math.isinf(gap):
            self.running = False
            return
        self._next_event = self.sim.after(gap, self._emit)

    # -- hooks ---------------------------------------------------------------

    def _packet_size(self) -> int:
        raise NotImplementedError

    def _next_gap(self) -> float:
        raise NotImplementedError


class CBRSource(TrafficSource):
    """Constant bit rate: ``packet_size`` bytes every ``interval`` seconds.

    ``interval = packet_size / rate_bytes_per_s``.  With ``rate=0`` the
    source is silent (the Table 4 "CBR 0 B/s" row).
    """

    def __init__(
        self,
        sim,
        agent,
        rate_bytes_per_s: float,
        packet_size: int = 1,
        name: str = "cbr",
    ):
        super().__init__(sim, agent, name)
        if rate_bytes_per_s < 0:
            raise ValueError(f"rate must be >= 0, got {rate_bytes_per_s}")
        if packet_size < 1:
            raise ValueError(f"packet size must be >= 1, got {packet_size}")
        self.rate = rate_bytes_per_s
        self.packet_size = packet_size

    def start(self, at: Optional[float] = None) -> None:
        if self.rate == 0:
            return  # a zero-rate CBR never emits
        super().start(at)

    @property
    def interval(self) -> float:
        return self.packet_size / self.rate

    def _packet_size(self) -> int:
        return self.packet_size

    def _next_gap(self) -> float:
        return self.interval


class PoissonSource(TrafficSource):
    """Poisson arrivals: exponential gaps with the given mean rate."""

    def __init__(
        self,
        sim,
        agent,
        rate_packets_per_s: float,
        packet_size: int = 1,
        name: str = "poisson",
    ):
        super().__init__(sim, agent, name)
        if rate_packets_per_s <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_packets_per_s
        self.packet_size = packet_size
        self._rng = sim.stream(f"traffic.{self.name}")

    def _packet_size(self) -> int:
        return self.packet_size

    def _next_gap(self) -> float:
        return self._rng.expovariate(self.rate)
