"""The simulated embedded client (the paper's C++ client on the board).

Sec. 4.2 translates the prototype Java client into C++ so it can run on
the Theseus boards; in the co-simulation that client talks through the
SC1 bridge onto the TpWIRE bus.  :class:`SimSpaceClient` is that client:
a discrete-event process speaking the XML wire protocol over a pair of
byte channels, with a :class:`ClientTimingModel` charging the time the
embedded processor needs to build and parse XML messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.core.errors import ProtocolError, SpaceError
from repro.core.protocol import Call, ClientSession
from repro.core.xmlcodec import XmlCodec
from repro.des.process import SimEvent


@dataclass(frozen=True)
class ClientTimingModel:
    """Processing costs of the embedded client.

    The board runs the client under an instruction-set simulator behind a
    gdb stub (Sec. 4.3), so marshalling costs are far from negligible;
    they are charged per byte built/parsed plus a fixed per-operation
    dispatch overhead.
    """

    build_seconds_per_byte: float = 0.0
    parse_seconds_per_byte: float = 0.0
    request_overhead: float = 0.0

    def build_time(self, nbytes: int) -> float:
        return self.request_overhead + nbytes * self.build_seconds_per_byte

    def parse_time(self, nbytes: int) -> float:
        return nbytes * self.parse_seconds_per_byte


def _grant(ack: dict) -> dict:
    return {"lease_id": ack["lease_id"], "granted": ack["granted"]}


def _remaining(terms: dict) -> dict:
    return {"remaining": terms["remaining"]}


class SimSpaceClient:
    """Sequential space client as a DES process toolkit.

    ``tx_channel``/``rx_channel`` are
    :class:`~repro.hw.shared_memory.SharedMemoryChannel`-shaped objects
    (the SC1 bridge exposes exactly such a pair).  All operations are
    generators to be driven from a process::

        def board_program(sim, client):
            yield from client.op_write(entry, lease=160.0)
            entry = yield from client.op_take(template, timeout=30.0)

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
        timing: Optional[ClientTimingModel] = None,
        name: str = "sim-client",
    ):
        self.sim = sim
        self.tx_channel = tx_channel
        self.rx_channel = rx_channel
        self.codec = codec
        self.timing = timing if timing is not None else ClientTimingModel()
        self.name = name
        self.session = ClientSession(codec)
        self._dispatcher = sim.spawn(self._dispatch(), name=f"{name}.rx")

    @property
    def stale_responses(self) -> int:
        return self.session.stale_responses

    # -- operations ----------------------------------------------------------

    def op_write(
        self,
        entry: Any,
        lease: Optional[float] = None,
        created_at: Optional[float] = None,
    ) -> Generator:
        return self._call(self.session.write(entry, lease, created_at).then(_grant))

    def op_take(self, template: Any, timeout: Optional[float] = None) -> Generator:
        return self._call(self.session.take(template, timeout))

    def op_read(self, template: Any, timeout: Optional[float] = None) -> Generator:
        return self._call(self.session.read(template, timeout))

    def op_take_if_exists(self, template: Any) -> Generator:
        return self._call(self.session.take_if_exists(template))

    def op_read_if_exists(self, template: Any) -> Generator:
        return self._call(self.session.read_if_exists(template))

    def op_renew_lease(self, lease_id: int, duration: float) -> Generator:
        """Renew a server-held lease; returns the ack's lease terms.

        ``granted`` is the post-clamp term the server actually granted —
        when the space caps renewals (``max_lease``), it is shorter than
        ``duration`` and the board must schedule its next heartbeat from
        it, not from what it asked for.
        """
        return self._call(self.session.renew_lease(lease_id, duration))

    def op_cancel_lease(self, lease_id: int) -> Generator:
        """Cancel a server-held lease (entry or notify registration)."""
        return self._call(self.session.cancel_lease(lease_id).then(_remaining))

    def op_ping(self) -> Generator:
        return self._call(self.session.ping())

    # -- plumbing ---------------------------------------------------------------

    def _call(self, call: Call) -> Generator:
        waiter = SimEvent(self.sim)
        request_id, wire = self.session.start(call, waiter)
        # Charge the board's marshalling time before bytes leave it.
        build_time = self.timing.build_time(len(wire))
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
            # Charge the board's XML parse time for the received bytes.
            parse_time = self.timing.parse_time(len(data))
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
