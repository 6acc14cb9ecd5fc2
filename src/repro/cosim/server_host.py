"""The simulated space-server host behind the SC2 bridge.

In the paper (Figures 4 and 5) the JavaSpaces server runs on a host
reached through the SC2 SystemC node: bytes leave the bus, cross UNIX
sockets into the Java/socket wrapper, hop over RMI into the SpaceServer,
and the response retraces the path.  :class:`SimServerHost` is that whole
host: it feeds inbound bus bytes through the wire-protocol parser, calls
the real :class:`~repro.core.server.SpaceServer` directly, and charges a
:class:`~repro.core.sim_client.MarshallingCost` for parsing, the RMI hop
and marshalling — then ships responses back over the bridge in order.
"""

from __future__ import annotations

from typing import Generator

from repro.core.protocol import Message
from repro.core.server import ServerConnection, SpaceServer
from repro.core.sim_client import MarshallingCost
from repro.des.resource import Store
from repro.hw.bridge import ServerBridge


class _BridgeSession(ServerConnection):
    """Per-client connection: queues responses for ordered, timed sending."""

    def __init__(self, host: "SimServerHost", node_id: int):
        self.host = host
        self.node_id = node_id
        self.outgoing: Store = Store(host.sim)
        super().__init__(host.server, self.outgoing.put)
        self._sender = host.sim.spawn(
            self._send_loop(), name=f"server-session{node_id}"
        )

    def dispatch(self, message: Message) -> None:
        self.host.requests_dispatched += 1
        super().dispatch(message)

    def _send_loop(self) -> Generator:
        while True:
            wire = yield self.outgoing.get()
            build_time = self.host.timing.reply_time(len(wire))
            if build_time > 0:
                yield self.host.sim.timeout(build_time)
            self.host.bridge.send_to(self.node_id, wire)
            self.host.bytes_sent += len(wire)


class SimServerHost:
    """The space-server host process behind an SC2 bridge.

    ``bridge`` is anything with a settable ``deliver(src, data)`` inbound
    callback and a ``send_to(node, data)`` outbound path.  Requests reach
    ``server.handle`` directly: the paper's RMI hop is a cost, charged by
    ``timing`` (parsing a request, with its overhead, and building a
    reply), not a layer; ``requests_dispatched`` counts the requests
    handed to the server (all but HELLO).  A source whose
    bytes fail to parse gets the shared ERROR-then-close treatment: its
    connection is dropped (reaping its parked requests) and its next
    bytes open a fresh one.
    """

    def __init__(
        self,
        sim,
        server: SpaceServer,
        bridge: ServerBridge,
        timing: MarshallingCost = MarshallingCost(),
        name: str = "server-host",
    ):
        self.sim = sim
        self.server = server
        self.bridge = bridge
        self.timing = timing
        self.name = name
        self.requests_dispatched = 0
        self._sessions: dict[int, _BridgeSession] = {}
        self._inbound: Store = Store(sim)
        self.bytes_received = 0
        self.bytes_sent = 0
        bridge.deliver = self._on_bus_bytes
        self._worker = sim.spawn(self._dispatch_loop(), name=f"{name}.dispatch")

    # -- inbound path -----------------------------------------------------------

    def _on_bus_bytes(self, src: int, data: bytes) -> None:
        self.bytes_received += len(data)
        self._inbound.put((src, data))

    def _dispatch_loop(self) -> Generator:
        while True:
            src, data = yield self._inbound.get()
            parse_time = self.timing.request_time(len(data))
            if parse_time > 0:
                yield self.sim.timeout(parse_time)
            session = self._sessions.get(src)
            if session is None:
                session = self._sessions[src] = _BridgeSession(self, src)
            if not session.feed(data):
                del self._sessions[src]
