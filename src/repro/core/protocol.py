"""Socket wire protocol between clients and the space server.

Sec. 4.2: the C++ client on the Theseus board cannot run a JVM, so a
"Java/socket wrapper" exposes the space server over a byte stream with
XML-encoded entries.  This module defines that byte stream.

Frame layout (big-endian)::

    magic(2) = 0x54 0x53 ("TS")
    type(1)              -- MessageType
    request_id(4)
    body_length(4)
    body(body_length)    -- XML document (may be empty)

Requests carry scalar parameters (lease duration, timeout, lease ids) as
attributes of a ``<request>`` wrapper element whose first child, if any,
is the XML-encoded entry/tuple/template.

The *frame* layout is codec-independent; only the body encoding varies.
A connection starts out speaking XML bodies.  A client may open with a
``HELLO`` message offering body codecs (``codecs="binary,xml"``); the
server answers ``HELLO_ACK`` naming its pick, still in the old encoding,
and both sides switch for every subsequent frame.  A client that never
sends ``HELLO`` gets the historical XML protocol unchanged (docs/wire.md).
"""

from __future__ import annotations

import enum
import math
import struct
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core.errors import ProtocolError, SpaceError
from repro.core.xmlcodec import XmlCodec, escape_attrib

MAGIC = b"TS"
HEADER = struct.Struct(">2sBII")

#: Upper bound on one message body; protects servers from bad lengths.
MAX_BODY = 1 << 20


class MessageType(enum.IntEnum):
    # client -> server
    WRITE = 0x01
    READ = 0x02
    TAKE = 0x03
    READ_IF_EXISTS = 0x04
    TAKE_IF_EXISTS = 0x05
    NOTIFY_REGISTER = 0x06
    CANCEL_LEASE = 0x07
    RENEW_LEASE = 0x08
    PING = 0x09
    HELLO = 0x0A
    STATS = 0x0B
    # server -> client
    WRITE_ACK = 0x81
    RESULT_ENTRY = 0x82
    RESULT_NULL = 0x83
    NOTIFY_ACK = 0x84
    NOTIFY_EVENT = 0x85
    LEASE_ACK = 0x86
    ERROR = 0x87
    PONG = 0x88
    HELLO_ACK = 0x89
    STATS_ACK = 0x8A


#: Message types a server may send.
RESPONSE_TYPES = {
    MessageType.WRITE_ACK,
    MessageType.RESULT_ENTRY,
    MessageType.RESULT_NULL,
    MessageType.NOTIFY_ACK,
    MessageType.NOTIFY_EVENT,
    MessageType.LEASE_ACK,
    MessageType.ERROR,
    MessageType.PONG,
    MessageType.HELLO_ACK,
    MessageType.STATS_ACK,
}

#: ``{type byte: MessageType}``: frames are typed by lookup, not by the
#: enum's constructor.
_MESSAGE_TYPES = {int(kind): kind for kind in MessageType}

#: Body codecs this build can negotiate, in server preference order.
SUPPORTED_CODECS = ("binary", "xml")

#: Request ids live in the 32-bit header field; clients wrap modulo this.
REQUEST_ID_MODULUS = 1 << 32


@dataclass
class Message:
    """One decoded protocol message."""

    msg_type: MessageType
    request_id: int
    #: scalar parameters (<request> attributes): lease, timeout, lease_id...
    params: dict = field(default_factory=dict)
    #: the embedded entry/tuple/template, if any (decoded object)
    item: Any = None

    def param_float(self, name: str, default: Optional[float] = None) -> Optional[float]:
        value = self.params.get(name)
        if value is None:
            return default
        try:
            number = float(value)
        except ValueError:
            raise ProtocolError(f"parameter {name}={value!r} is not a number")
        if math.isnan(number):
            # A NaN lease or timeout compares false against every bound,
            # so nothing measured by it would ever end.
            raise ProtocolError(f"parameter {name}={value!r} is not a number")
        return number

    def param_int(self, name: str, default: Optional[int] = None) -> Optional[int]:
        value = self.params.get(name)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ProtocolError(f"parameter {name}={value!r} is not an int")


class XmlWireCodec:
    """The historical body encoding: an XML ``<request>`` document.

    A *wire codec* turns a :class:`Message` into body bytes and back;
    the frame header around the body never changes.  This one wraps the
    :class:`XmlCodec` value model and is what every connection speaks
    until (unless) a HELLO exchange negotiates another.
    """

    name = "xml"

    def __init__(self, registry: XmlCodec):
        self.registry = registry

    def encode_body(self, message: Message) -> bytes:
        if not message.params and message.item is None:
            return b""
        out = ["<request"]
        for key, value in sorted(message.params.items()):
            if type(value) is int or type(value) is float:
                # Digits, signs, '.', 'e', "inf" or "nan": nothing to escape.
                out.append(f' {key}="{value!s}"')
            else:
                out.append(f' {key}="{escape_attrib(str(value))}"')
        if message.item is None:
            out.append(" />")
        else:
            out.append(">")
            self.registry.write_item(out, message.item)
            out.append("</request>")
        return "".join(out).encode("utf-8")

    def encode_frame(self, message: Message) -> bytes:
        """The whole frame: header, then the body."""
        body = self.encode_body(message)
        return HEADER.pack(
            MAGIC, message.msg_type, message.request_id, len(body)
        ) + body

    def decode_body(self, msg_type: MessageType, request_id: int, body: bytes) -> Message:
        return decode_body(msg_type, request_id, body, self.registry)


def as_wire_codec(codec) -> Any:
    """Normalise: a bare :class:`XmlCodec` means the XML wire encoding."""
    if isinstance(codec, XmlCodec):
        return XmlWireCodec(codec)
    return codec


def make_wire_codec(name: str, registry: XmlCodec):
    """Instantiate a negotiated body codec over a value-model registry."""
    if name == "xml":
        return XmlWireCodec(registry)
    if name == "binary":
        # Function-local on purpose: bincodec imports Message from here,
        # and this lazy edge keeps the module graph acyclic.
        from repro.core.bincodec import BinaryWireCodec

        return BinaryWireCodec(registry)
    raise ProtocolError(f"unknown wire codec {name!r}")


def negotiate_codec(offered: str) -> Optional[str]:
    """Server side of HELLO: pick from a comma-separated offer.

    Returns the first name in :data:`SUPPORTED_CODECS` the client also
    offered, or ``None`` when nothing overlaps (the server then answers
    ``HELLO_ACK`` naming ``xml``, which every client speaks already).
    """
    names = {name.strip() for name in offered.split(",") if name.strip()}
    for candidate in SUPPORTED_CODECS:
        if candidate in names:
            return candidate
    return None


def encode_message(message: Message, codec) -> bytes:
    """Serialise a :class:`Message` to wire bytes.

    ``codec`` is an :class:`XmlCodec` (historical call sites — XML
    bodies) or any wire codec exposing ``encode_frame``.
    """
    frame = as_wire_codec(codec).encode_frame(message)
    if len(frame) > HEADER.size + MAX_BODY:
        raise ProtocolError(
            f"message body too large: {len(frame) - HEADER.size} bytes"
        )
    return frame


def decode_body(msg_type: MessageType, request_id: int, body: bytes, codec: XmlCodec) -> Message:
    """Reconstruct a :class:`Message` from its decoded header and body:
    by its entry class's decode plan when the body is the writer's own
    layout, by ElementTree otherwise (``docs/protocol.md`` §6)."""
    if not body:
        return Message(msg_type, request_id)
    planned = codec.read_planned_request(body)
    if planned is not None:
        return Message(msg_type, request_id, *planned)
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise ProtocolError(f"bad message XML: {exc}") from exc
    if root.tag != "request":
        raise ProtocolError(f"expected <request>, got <{root.tag}>")
    params = dict(root.attrib)
    children = codec.child_elements(root, "<request>")
    if len(children) > 1:
        raise ProtocolError("a message carries at most one item")
    item = codec.read_item(children[0]) if children else None
    return Message(msg_type, request_id, params, item)


class StreamParser:
    """Incremental parser: feed bytes, iterate complete messages.

    Used by every transport — TCP sockets, the in-process loopback and
    the TpWIRE bridges — since all of them deliver arbitrary byte chunks.

    ``codec`` is an :class:`XmlCodec` (XML bodies, the default wire
    encoding) or any wire codec with ``decode_body``; :meth:`set_codec`
    switches mid-stream after a HELLO exchange — framing is shared, so
    the switch is clean at any frame boundary.

    When a frame is malformed the raised :class:`ProtocolError` leaves
    :attr:`error_request_id` holding the frame's request id if the header
    was intact (transports use it to answer ``ERROR`` before closing) and
    ``None`` when the stream itself lost sync (bad magic — nothing about
    the frame can be trusted, not even the id).
    """

    def __init__(self, codec):
        self.codec = as_wire_codec(codec)
        self._buffer = bytearray()
        self.messages_parsed = 0
        #: request id of the frame whose parse last failed, if the
        #: header survived; ``None`` after sync loss.
        self.error_request_id: Optional[int] = None

    def set_codec(self, codec) -> None:
        """Switch body codecs at a frame boundary (HELLO negotiation)."""
        self.codec = as_wire_codec(codec)

    def feed(self, data: bytes) -> list[Message]:
        """Append bytes; return every message completed by them."""
        self._buffer.extend(data)
        messages = []
        while True:
            message = self._try_parse_one()
            if message is None:
                return messages
            messages.append(message)

    def _try_parse_one(self) -> Optional[Message]:
        if len(self._buffer) < HEADER.size:
            return None
        magic, raw_type, request_id, length = HEADER.unpack_from(self._buffer)
        if magic != MAGIC:
            self.error_request_id = None
            raise ProtocolError(f"bad magic {magic!r}; stream out of sync")
        if length > MAX_BODY:
            self.error_request_id = request_id
            raise ProtocolError(f"declared body too large: {length}")
        total = HEADER.size + length
        if len(self._buffer) < total:
            return None
        body = bytes(self._buffer[HEADER.size : total])
        del self._buffer[:total]
        self.error_request_id = request_id
        msg_type = _MESSAGE_TYPES.get(raw_type)
        if msg_type is None:
            raise ProtocolError(f"unknown message type {raw_type:#x}")
        message = self.codec.decode_body(msg_type, request_id, body)
        self.messages_parsed += 1
        self.error_request_id = None
        return message

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)


# -- client core ---------------------------------------------------------------
#
# The client half of the protocol as sans-IO code: request ids, reply
# correlation, notify routing, HELLO and per-op reply decoding live here
# once.  SpaceClient (blocking), AsyncSpaceClient (asyncio) and
# SimSpaceClient (DES) only move the bytes.


def _raise_error(reply: Message) -> None:
    if reply.msg_type is MessageType.ERROR:
        raise SpaceError(reply.params.get("text", "server error"))


def _expect(reply: Message, expected: MessageType) -> None:
    """Raise ``SpaceError`` for an ERROR reply, ``ProtocolError`` for any
    other reply type than ``expected``."""
    _raise_error(reply)
    if reply.msg_type is not expected:
        raise ProtocolError(f"expected {expected.name}, got {reply.msg_type.name}")


def _write_ack(reply: Message) -> dict:
    _expect(reply, MessageType.WRITE_ACK)
    return {
        "lease_id": reply.param_int("lease_id"),
        "granted": reply.param_float("granted"),
        "dup": bool(reply.param_int("dup")),
    }


def _result(reply: Message) -> Any:
    _raise_error(reply)
    if reply.msg_type is MessageType.RESULT_NULL:
        return None
    _expect(reply, MessageType.RESULT_ENTRY)
    return reply.item


def _lease_terms(reply: Message) -> dict:
    _expect(reply, MessageType.LEASE_ACK)
    return {
        "remaining": reply.param_float("remaining"),
        "granted": reply.param_float("granted"),
    }


def _pong(reply: Message) -> bool:
    _raise_error(reply)
    return reply.msg_type is MessageType.PONG


def _stats(reply: Message) -> dict:
    _expect(reply, MessageType.STATS_ACK)
    return dict(reply.params)


class Call:
    """One request and the decoder turning its reply into a result."""

    __slots__ = ("msg_type", "params", "item", "decode")

    def __init__(self, msg_type: MessageType, params: dict, item: Any, decode: Callable):
        self.msg_type = msg_type
        self.params = params
        self.item = item
        self.decode = decode

    def then(self, shape: Callable) -> "Call":
        """The same request with ``shape`` applied to the decoded result."""
        decode = self.decode
        return Call(self.msg_type, self.params, self.item,
                    lambda reply: shape(decode(reply)))


class ClientSession:
    """Sans-IO client state machine: calls in, bytes out; bytes in,
    completed calls out.

    :meth:`start` allocates a request id (modulo 2³², skipping 0, which
    ERROR replies use when no request id was recoverable), encodes the
    call and parks the shell's ``waiter`` (any object but ``None``)
    under that id.  :meth:`receive` parses inbound bytes, runs notify
    callbacks and returns ``(waiter, reply)`` for every pending request
    a reply completed; the shell resolves its waiter and hands the reply
    to ``call.decode``.  A reply to no pending request is *stale* when
    its id lies behind the last one issued (a duplicate, or a reply to a
    request the shell gave up on) and a :class:`ProtocolError`
    otherwise.  A request-id-0 ERROR is connection-fatal: it completes
    every pending request.
    """

    def __init__(self, registry: XmlCodec):
        self.registry = registry
        self.wire_codec = "xml"
        self.wire = XmlWireCodec(registry)
        self.parser = StreamParser(self.wire)
        self.last_request_id = 0
        self._pending: dict[int, Any] = {}
        self._notify_handlers: dict[int, Callable] = {}
        self.events_received = 0
        #: Replies to no pending request (duplicates, or replies that
        #: arrived after their request timed out), discarded on sight.
        self.stale_responses = 0

    # -- requests out ----------------------------------------------------------

    def start(self, call: Call, waiter: Any) -> tuple[int, bytes]:
        """Allocate an id for ``call``; return it and the frame to send."""
        request_id = (self.last_request_id + 1) % REQUEST_ID_MODULUS or 1
        self.last_request_id = request_id
        wire = encode_message(
            Message(call.msg_type, request_id, call.params, call.item), self.wire
        )
        self._pending[request_id] = waiter
        return request_id, wire

    def abandon(self, request_id: int) -> None:
        """Forget a request (timed out, or its send failed)."""
        self._pending.pop(request_id, None)

    def drop_pending(self) -> list:
        """Forget every pending request; return their waiters."""
        waiters = list(self._pending.values())
        self._pending.clear()
        return waiters

    # -- replies in --------------------------------------------------------------

    def receive(self, data: bytes) -> list[tuple[Any, Message]]:
        completed = []
        for message in self.parser.feed(data):
            if message.msg_type is MessageType.NOTIFY_EVENT:
                self.events_received += 1
                handler = self._notify_handlers.get(
                    message.param_int("registration_id")
                )
                if handler is not None:
                    handler(message)
                continue
            waiter = self._pending.pop(message.request_id, None)
            if waiter is not None:
                completed.append((waiter, message))
            elif message.msg_type is MessageType.ERROR and message.request_id == 0:
                # Connection-fatal server error (a frame so broken no
                # request id was recoverable); the close follows.
                completed.extend((w, message) for w in self.drop_pending())
            elif (
                self.last_request_id - message.request_id
            ) % REQUEST_ID_MODULUS < REQUEST_ID_MODULUS // 2:
                # Wrap-safe ordering: behind the last id issued in the
                # modular half-window — a plain `<` would misclassify
                # everything straddling the 2^32 wrap.
                self.stale_responses += 1
            else:
                raise ProtocolError(
                    f"response for unknown request {message.request_id}"
                )
        return completed

    # -- one builder per op ----------------------------------------------------

    def write(
        self,
        entry: Any,
        lease: Optional[float] = None,
        created_at: Optional[float] = None,
        op_key: Optional[str] = None,
    ) -> Call:
        params = {}
        if lease is not None:
            params["lease"] = lease
        if created_at is not None:
            params["created_at"] = created_at
        if op_key is not None:
            params["op_key"] = op_key
        return Call(MessageType.WRITE, params, entry, _write_ack)

    def read(self, template: Any, timeout: Optional[float] = None) -> Call:
        return self._blocking(MessageType.READ, template, timeout)

    def take(self, template: Any, timeout: Optional[float] = None) -> Call:
        return self._blocking(MessageType.TAKE, template, timeout)

    def _blocking(self, msg_type: MessageType, template: Any, timeout) -> Call:
        params = {} if timeout is None else {"timeout": timeout}
        return Call(msg_type, params, template, _result)

    def read_if_exists(self, template: Any) -> Call:
        return Call(MessageType.READ_IF_EXISTS, {}, template, _result)

    def take_if_exists(self, template: Any) -> Call:
        return Call(MessageType.TAKE_IF_EXISTS, {}, template, _result)

    def notify(
        self, template: Any, callback: Callable, lease: Optional[float] = None
    ) -> Call:
        """Subscribe; ``callback(message)`` runs for each NOTIFY_EVENT."""

        def subscribed(reply: Message) -> dict:
            _expect(reply, MessageType.NOTIFY_ACK)
            registration_id = reply.param_int("registration_id")
            self._notify_handlers[registration_id] = callback
            return {
                "registration_id": registration_id,
                "lease_id": reply.param_int("lease_id"),
            }

        params = {} if lease is None else {"lease": lease}
        return Call(MessageType.NOTIFY_REGISTER, params, template, subscribed)

    def cancel_lease(self, lease_id: int) -> Call:
        return Call(MessageType.CANCEL_LEASE, {"lease_id": lease_id}, None,
                    _lease_terms)

    def renew_lease(self, lease_id: int, duration: float) -> Call:
        return Call(
            MessageType.RENEW_LEASE,
            {"lease_id": lease_id, "duration": duration},
            None,
            _lease_terms,
        )

    def ping(self) -> Call:
        return Call(MessageType.PING, {}, None, _pong)

    def stats(self) -> Call:
        return Call(MessageType.STATS, {}, None, _stats)

    def negotiate(self, codecs: str = "binary,xml") -> Call:
        """Offer body codecs; the reply switches both directions.

        Must be the first request on the connection (frames of earlier
        requests could otherwise still be in flight in the old
        encoding).  A server predating the exchange answers ERROR; the
        session then simply stays on XML.
        """
        return Call(MessageType.HELLO, {"codecs": codecs}, None, self._hello_ack)

    def _hello_ack(self, reply: Message) -> str:
        if reply.msg_type is MessageType.ERROR:
            return self.wire_codec
        _expect(reply, MessageType.HELLO_ACK)
        chosen = reply.params.get("codec", "xml")
        if chosen != self.wire_codec:
            self.wire = make_wire_codec(chosen, self.registry)
            self.parser.set_codec(self.wire)
            self.wire_codec = chosen
        return chosen

