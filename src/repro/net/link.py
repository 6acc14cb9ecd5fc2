"""Point-to-point links with bandwidth, delay and a drop-tail queue.

A :class:`Link` is simplex (NS-2 style); :class:`DuplexLink` bundles two.
Serialisation time is ``packet.bits / bandwidth_bps``; packets then
propagate for ``delay`` seconds.  The queue holds packets waiting for the
transmitter and drops arrivals beyond ``queue_limit`` (drop-tail).

Fault injection hooks in at :meth:`Link.send`: when ``link.fault`` is set
(a callable ``fault(link, packet)``), its verdict — ``None``/``"pass"``,
``"drop"``, ``"dup"``, ``"corrupt"`` or ``("delay", seconds)`` — is
applied before the packet reaches the queue.  Drop and corrupt events are
counted (``drops``/``corrupts``) and exported as ``repro.obs`` counters
when the simulator carries an observability context, which also receives
the NS-2-style ``net`` trace: ``enqueue``, ``dequeue`` and ``drop``
events here, ``receive`` in :meth:`repro.net.node.Node.deliver`.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.des.monitor import RateMonitor, TimeWeightedMonitor
from repro.net.node import Node
from repro.net.packet import Packet


class Link:
    """Simplex link from ``src_node`` to ``dst_node``."""

    def __init__(
        self,
        sim,
        src_node: Node,
        dst_node: Node,
        bandwidth_bps: float,
        delay: float = 0.0,
        queue_limit: Optional[int] = None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.sim = sim
        self.src_node = src_node
        self.dst_node = dst_node
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.queue_limit = queue_limit
        self._queue: deque[Packet] = deque()
        self._busy = False
        self.throughput = RateMonitor(sim, name=f"{self}.throughput")
        self.queue_monitor = TimeWeightedMonitor(sim, name=f"{self}.qlen")
        self.drops = 0
        self.corrupts = 0
        self.fault_drops = 0
        self.fault_dups = 0
        self.fault_delays = 0
        #: Optional fault hook ``fault(link, packet) -> verdict`` consulted
        #: on every ``send``; see module docstring for verdicts.
        self.fault = None
        self.obs = getattr(sim, "obs", None)
        if self.obs is not None:
            self.obs.metrics.attach(f"{self}.drops", lambda: self.drops)
            self.obs.metrics.attach(f"{self}.corrupts", lambda: self.corrupts)
        src_node.register_link(self)

    # -- sending -----------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet`` for transmission; ``False`` if dropped."""
        fault = self.fault
        if fault is not None:
            verdict = fault(self, packet)
            if verdict is not None and verdict != "pass":
                return self._apply_fault(verdict, packet)
        return self._enqueue(packet)

    def _apply_fault(self, verdict, packet: Packet) -> bool:
        action = verdict[0] if isinstance(verdict, tuple) else verdict
        if action == "drop":
            self.fault_drops += 1
            self._record_drop(packet)
            return False
        if action == "corrupt":
            self.corrupts += 1
            packet.headers["corrupted"] = True
            return self._enqueue(packet)
        if action == "dup":
            self.fault_dups += 1
            accepted = self._enqueue(packet)
            self._enqueue(packet.copy())
            return accepted
        if action == "delay":
            self.fault_delays += 1
            self.sim.call_after(float(verdict[1]), self._enqueue, packet)
            return True
        raise ValueError(f"unknown link fault verdict {verdict!r}")

    def _record_drop(self, packet: Packet) -> None:
        self.drops += 1
        self._trace("drop", packet)

    def _trace(self, name: str, packet: Packet) -> None:
        if self.obs is not None:
            self.obs.tracer.event(
                "net", name, src=self.src_node.name, dst=self.dst_node.name,
                kind=packet.kind, size=packet.size, uid=packet.uid,
            )

    def _enqueue(self, packet: Packet) -> bool:
        if self.queue_limit is not None and len(self._queue) >= self.queue_limit:
            self._record_drop(packet)
            return False
        self._queue.append(packet)
        self.queue_monitor.set(len(self._queue))
        self._trace("enqueue", packet)
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet = self._queue.popleft()
        self.queue_monitor.set(len(self._queue))
        tx_time = packet.bits / self.bandwidth_bps
        self._trace("dequeue", packet)
        self.sim.call_after(tx_time, self._tx_done, packet)

    def _tx_done(self, packet: Packet) -> None:
        self.throughput.tick(packet.size)
        packet.hops += 1
        self.sim.call_after(self.delay, self.dst_node.deliver, packet)
        self._start_next()

    # -- introspection -------------------------------------------------------

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    def serialization_time(self, size_bytes: int) -> float:
        return size_bytes * 8 / self.bandwidth_bps

    def __repr__(self) -> str:
        return f"Link({self.src_node.name}->{self.dst_node.name})"


class DuplexLink:
    """Two simplex links in opposite directions (NS-2 ``duplex-link``)."""

    def __init__(
        self,
        sim,
        node_a: Node,
        node_b: Node,
        bandwidth_bps: float,
        delay: float = 0.0,
        queue_limit: Optional[int] = None,
    ):
        self.forward = Link(sim, node_a, node_b, bandwidth_bps, delay, queue_limit)
        self.backward = Link(sim, node_b, node_a, bandwidth_bps, delay, queue_limit)

    def direction(self, src: Node) -> Link:
        if src is self.forward.src_node:
            return self.forward
        if src is self.backward.src_node:
            return self.backward
        raise ValueError(f"{src!r} is not an endpoint of this duplex link")
