"""The simulated embedded client (the paper's C++ client on the board).

Sec. 4.2 translates the prototype Java client into C++ so it can run on
the Theseus boards; in the co-simulation that client talks through the
SC1 bridge onto the TpWIRE bus.  :class:`SimSpaceClient` is that client:
a discrete-event process speaking the wire protocol over a pair of
byte channels, with a :class:`MarshallingCost` charging the time the
embedded processor needs to build and parse messages.  The host behind
the bus charges the same model (:mod:`repro.cosim.server_host`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.core.client import SpaceOperations
from repro.core.errors import ProtocolError, SpaceError
from repro.core.protocol import Call, ClientSession
from repro.core.xmlcodec import XmlCodec
from repro.des.process import SimEvent


@dataclass(frozen=True)
class MarshallingCost:
    """Processing costs of one end of the wire: the board or the host.

    The board runs the client under an instruction-set simulator behind a
    gdb stub (Sec. 4.3), and the host parses in a JVM behind a socket
    wrapper and an RMI hop, so marshalling costs are far from negligible.
    Each end charges a request's bytes plus a fixed per-request overhead
    (the board when it builds a request, the host when it parses one)
    and a reply's bytes alone (the host builds it, the board parses it).
    """

    request_seconds_per_byte: float = 0.0
    reply_seconds_per_byte: float = 0.0
    request_overhead: float = 0.0

    def request_time(self, nbytes: int) -> float:
        return self.request_overhead + nbytes * self.request_seconds_per_byte

    def reply_time(self, nbytes: int) -> float:
        return nbytes * self.reply_seconds_per_byte


class SimSpaceClient(SpaceOperations):
    """Sequential space client as a DES process toolkit.

    ``tx_channel``/``rx_channel`` are
    :class:`~repro.hw.shared_memory.SharedMemoryChannel`-shaped objects
    (the SC1 bridge exposes exactly such a pair).  The operations are
    those of :class:`SpaceOperations`, with the same results; each
    returns a generator to be driven from a process::

        def board_program(sim, client):
            yield from client.write(entry, lease=160.0)
            entry = yield from client.take(template, timeout=30.0)

    The protocol is the shared :class:`ClientSession`; this shell moves
    its bytes over the channels and charges the board's build and parse
    time around them.
    """

    def __init__(
        self,
        sim,
        tx_channel,
        rx_channel,
        codec: XmlCodec,
        timing: Optional[MarshallingCost] = None,
        name: str = "sim-client",
    ):
        self.sim = sim
        self.tx_channel = tx_channel
        self.rx_channel = rx_channel
        self.codec = codec
        self.timing = timing if timing is not None else MarshallingCost()
        self.name = name
        self.session = ClientSession(codec)
        self._dispatcher = sim.spawn(self._dispatch(), name=f"{name}.rx")

    # -- plumbing ---------------------------------------------------------------

    def _call(self, call: Call) -> Generator:
        waiter = SimEvent(self.sim)
        request_id, wire = self.session.start(call, waiter)
        # Charge the board's marshalling time before bytes leave it.
        build_time = self.timing.request_time(len(wire))
        if build_time > 0:
            yield self.sim.timeout(build_time)
        if not self.tx_channel.write(wire):
            self.session.abandon(request_id)
            raise SpaceError(f"{self.name}: transmit channel full")
        return call.decode((yield waiter))

    def _dispatch(self) -> Generator:
        while True:
            yield self.rx_channel.wait_readable()
            data = self.rx_channel.read()
            if not data:
                continue
            # Charge the board's parse time for the received bytes.
            parse_time = self.timing.reply_time(len(data))
            if parse_time > 0:
                yield self.sim.timeout(parse_time)
            try:
                completed = self.session.receive(data)
            except ProtocolError as exc:
                # The server's byte stream is unusable: fail every
                # parked op instead of leaving it waiting forever.
                for waiter in self.session.drop_pending():
                    waiter.fail(exc)
                continue
            for waiter, reply in completed:
                waiter.succeed(reply)
