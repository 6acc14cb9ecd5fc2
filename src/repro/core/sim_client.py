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
from repro.core.protocol import (
    REQUEST_ID_MODULUS,
    Message,
    MessageType,
    StreamParser,
    encode_message,
)
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


class SimSpaceClient:
    """Sequential space client as a DES process toolkit.

    ``tx_channel``/``rx_channel`` are
    :class:`~repro.hw.shared_memory.SharedMemoryChannel`-shaped objects
    (the SC1 bridge exposes exactly such a pair).  All operations are
    generators to be driven from a process::

        def board_program(sim, client):
            yield from client.op_write(entry, lease=160.0)
            entry = yield from client.op_take(template, timeout=30.0)
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
        self._parser = StreamParser(codec)
        self._pending: dict[int, SimEvent] = {}
        self._next_request_id = 0
        self.requests_sent = 0
        self.responses_received = 0
        self._dispatcher = sim.spawn(self._dispatch(), name=f"{name}.rx")

    # -- operations ----------------------------------------------------------

    def op_write(
        self,
        entry: Any,
        lease: Optional[float] = None,
        created_at: Optional[float] = None,
    ) -> Generator:
        params = {}
        if lease is not None:
            params["lease"] = lease
        if created_at is not None:
            params["created_at"] = created_at
        reply = yield from self._roundtrip(MessageType.WRITE, params, entry)
        self._expect(reply, MessageType.WRITE_ACK)
        return {
            "lease_id": reply.param_int("lease_id"),
            "granted": reply.param_float("granted"),
        }

    def op_take(self, template: Any, timeout: Optional[float] = None) -> Generator:
        return (yield from self._blocking(MessageType.TAKE, template, timeout))

    def op_read(self, template: Any, timeout: Optional[float] = None) -> Generator:
        return (yield from self._blocking(MessageType.READ, template, timeout))

    def op_take_if_exists(self, template: Any) -> Generator:
        reply = yield from self._roundtrip(MessageType.TAKE_IF_EXISTS, {}, template)
        return self._result(reply)

    def op_read_if_exists(self, template: Any) -> Generator:
        reply = yield from self._roundtrip(MessageType.READ_IF_EXISTS, {}, template)
        return self._result(reply)

    def op_renew_lease(self, lease_id: int, duration: float) -> Generator:
        """Renew a server-held lease; returns the ack's lease terms.

        ``granted`` is the post-clamp term the server actually granted —
        when the space caps renewals (``max_lease``), it is shorter than
        ``duration`` and the board must schedule its next heartbeat from
        it, not from what it asked for.
        """
        reply = yield from self._roundtrip(
            MessageType.RENEW_LEASE,
            {"lease_id": lease_id, "duration": duration},
        )
        self._expect(reply, MessageType.LEASE_ACK)
        return {
            "remaining": reply.param_float("remaining"),
            "granted": reply.param_float("granted"),
        }

    def op_cancel_lease(self, lease_id: int) -> Generator:
        """Cancel a server-held lease (entry or notify registration)."""
        reply = yield from self._roundtrip(
            MessageType.CANCEL_LEASE, {"lease_id": lease_id}
        )
        self._expect(reply, MessageType.LEASE_ACK)
        return {"remaining": reply.param_float("remaining")}

    def op_ping(self) -> Generator:
        reply = yield from self._roundtrip(MessageType.PING, {})
        return reply.msg_type is MessageType.PONG

    # -- plumbing ---------------------------------------------------------------

    def _blocking(self, msg_type: MessageType, template: Any, timeout) -> Generator:
        params = {} if timeout is None else {"timeout": timeout}
        reply = yield from self._roundtrip(msg_type, params, template)
        return self._result(reply)

    def _result(self, reply: Message) -> Optional[Any]:
        if reply.msg_type is MessageType.RESULT_NULL:
            return None
        self._expect(reply, MessageType.RESULT_ENTRY)
        return reply.item

    def _roundtrip(self, msg_type: MessageType, params: dict, item: Any = None) -> Generator:
        # Same wrap as SpaceClient: the header packs ids as >I, and 0 is
        # reserved for ERROR replies with no recoverable request id.
        self._next_request_id = (self._next_request_id + 1) % REQUEST_ID_MODULUS or 1
        request_id = self._next_request_id
        wire = encode_message(Message(msg_type, request_id, params, item), self.codec)
        # Charge the board's marshalling time before bytes leave it.
        build_time = self.timing.build_time(len(wire))
        if build_time > 0:
            yield self.sim.timeout(build_time)
        waiter = SimEvent(self.sim)
        self._pending[request_id] = waiter
        if not self.tx_channel.write(wire):
            del self._pending[request_id]
            raise SpaceError(f"{self.name}: transmit channel full")
        self.requests_sent += 1
        reply: Message = yield waiter
        if reply.msg_type is MessageType.ERROR:
            raise SpaceError(reply.params.get("text", "server error"))
        return reply

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
            for message in self._parser.feed(data):
                self.responses_received += 1
                waiter = self._pending.pop(message.request_id, None)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(message)

    def _expect(self, reply: Message, expected: MessageType) -> None:
        if reply.msg_type is not expected:
            raise ProtocolError(
                f"expected {expected.name}, got {reply.msg_type.name}"
            )
