"""The simulated space-server host behind the SC2 bridge.

In the paper (Figures 4 and 5) the JavaSpaces server runs on a host
reached through the SC2 SystemC node: bytes leave the bus, cross UNIX
sockets into the Java/socket wrapper, hop over RMI into the SpaceServer,
and the response retraces the path.  :class:`SimServerHost` is that whole
host: it feeds inbound bus bytes through the wire-protocol parser, invokes
the real :class:`~repro.core.server.SpaceServer` through a real RMI proxy,
and charges a :class:`ServerTimingModel` for parsing and marshalling —
then ships responses back over the bridge in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.core.rmi import Registry
from repro.core.server import ServerConnection, SpaceServer
from repro.des.resource import Store
from repro.hw.bridge import ServerBridge


@dataclass(frozen=True)
class ServerTimingModel:
    """Host-side processing costs (XML parse, dispatch, marshalling)."""

    parse_seconds_per_byte: float = 0.0
    build_seconds_per_byte: float = 0.0
    request_overhead: float = 0.0

    def parse_time(self, nbytes: int) -> float:
        return self.request_overhead + nbytes * self.parse_seconds_per_byte

    def build_time(self, nbytes: int) -> float:
        return nbytes * self.build_seconds_per_byte


class _BridgeSession(ServerConnection):
    """Per-client connection: queues responses for ordered, timed sending."""

    def __init__(self, host: "SimServerHost", node_id: int):
        self.host = host
        self.node_id = node_id
        self.outgoing: Store = Store(host.sim)
        super().__init__(host.server, self.outgoing.put, host._proxy)
        self._sender = host.sim.spawn(
            self._send_loop(), name=f"server-session{node_id}"
        )

    def _send_loop(self) -> Generator:
        while True:
            wire = yield self.outgoing.get()
            build_time = self.host.timing.build_time(len(wire))
            if build_time > 0:
                yield self.host.sim.timeout(build_time)
            self.host.bridge.send_to(self.node_id, wire)
            self.host.bytes_sent += len(wire)


class SimServerHost:
    """The space-server host process behind an SC2 bridge.

    ``bridge`` is anything with a settable ``deliver(src, data)`` inbound
    callback and a ``send_to(node, data)`` outbound path.  A source whose
    bytes fail to parse gets the shared ERROR-then-close treatment: its
    connection is dropped (reaping its parked requests) and its next
    bytes open a fresh one.
    """

    def __init__(
        self,
        sim,
        server: SpaceServer,
        bridge: ServerBridge,
        timing: ServerTimingModel = ServerTimingModel(),
        name: str = "server-host",
    ):
        self.sim = sim
        self.server = server
        self.bridge = bridge
        self.timing = timing
        self.name = name
        # The paper keeps RMI between the socket wrapper and the server;
        # requests therefore go through a real proxy here as well.
        registry = Registry()
        self._skeleton = registry.bind("SpaceServer", server, exposed=["handle"])
        self._proxy = registry.lookup("SpaceServer")
        self._sessions: dict[int, _BridgeSession] = {}
        self._inbound: Store = Store(sim)
        self.bytes_received = 0
        self.bytes_sent = 0
        bridge.deliver = self._on_bus_bytes
        self._worker = sim.spawn(self._dispatch_loop(), name=f"{name}.dispatch")

    @property
    def requests_dispatched(self) -> int:
        return self._skeleton.invocations

    # -- inbound path -----------------------------------------------------------

    def _on_bus_bytes(self, src: int, data: bytes) -> None:
        self.bytes_received += len(data)
        self._inbound.put((src, data))

    def _dispatch_loop(self) -> Generator:
        while True:
            src, data = yield self._inbound.get()
            parse_time = self.timing.parse_time(len(data))
            if parse_time > 0:
                yield self.sim.timeout(parse_time)
            session = self._sessions.get(src)
            if session is None:
                session = self._sessions[src] = _BridgeSession(self, src)
            if not session.feed(data):
                del self._sessions[src]
