"""Regression tests for the five wire-path correctness bugs.

Each test failed before its fix:

1. a malformed frame killed the server's connection thread silently
   (``ProtocolError`` is a ``SpaceError``, which the old
   ``except (OSError, ValueError)`` never caught) — no ERROR reply, no
   clean close;
2. the XML codec decoded a nameless ``<field>`` inside ``type="dict"``
   into ``{None: ...}``;
3. a Python ``tuple`` field was encoded as ``type="list"``, silently
   breaking round-trip equality;
4. ``SpaceClient.poll_events`` parked forever in a blocking ``recv``
   on socket connections when no event was pending;
5. ``_next_request_id`` grew unbounded and died in ``struct.pack('>I')``
   at 2**32 (in ``SpaceClient`` and, separately, ``SimSpaceClient``), and
   the stale-response check misclassified everything straddling the
   wrap.

The malformed-frame and event-polling tests run against both TCP front
ends.  The drift tests at the end pin down where the protocol's copies
had diverged before the shared client and connection cores: the
loopback answered HELLO with ERROR, ``AsyncSpaceClient`` raised where
``SpaceClient`` fell back to XML, and ``SimSpaceClient`` parked forever
on a request-id-0 ERROR and kept no stale-reply count.

Two XML text bugs close the file: a CR in a string came back as LF
(parsers normalise a raw CR), and a character XML 1.0 cannot carry was
encoded anyway, so the server answered ERROR and closed the connection.
"""

import asyncio
import socket
import struct
import threading

import pytest

from repro.core import (
    Entry,
    LindaTuple,
    ManualClock,
    SimClock,
    SimSpaceClient,
    SpaceClient,
    SpaceServer,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core.aio import AsyncSpaceClient
from repro.core.errors import ProtocolError, SpaceError
from repro.core.server import SimTimers
from repro.core.protocol import (
    HEADER,
    MAGIC,
    REQUEST_ID_MODULUS,
    Message,
    MessageType,
    StreamParser,
    encode_message,
)
from repro.core.transports import LocalConnection, open_socket_connection
from repro.des import Simulator
from repro.hw import SharedMemoryChannel
from tests.core.fronts import KINDS, serving


class Part(Entry):
    def __init__(self, serial=None, station=None, weight=None):
        self.serial = serial
        self.station = station
        self.weight = weight


def make_codec():
    codec = XmlCodec()
    codec.register(Part)
    return codec


@pytest.fixture(params=KINDS)
def tcp_server(request):
    codec = make_codec()
    space = TupleSpace()
    with serving(request.param, SpaceServer(space, codec)) as server:
        yield server, codec, space


class TestMalformedFrameAnswersError:
    """Satellite 1: ERROR reply + clean close, not a dead thread."""

    def test_garbage_body_gets_error_reply_then_close(self, tcp_server):
        server, codec, _space = tcp_server
        sock = socket.create_connection(server.address)
        try:
            sock.settimeout(2.0)
            body = b"<definitely-not-xml"
            sock.sendall(
                HEADER.pack(MAGIC, int(MessageType.WRITE), 77, len(body)) + body
            )
            parser = StreamParser(codec)
            replies = []
            while not replies:
                data = sock.recv(65536)
                assert data, "server closed without answering ERROR"
                replies.extend(parser.feed(data))
            (reply,) = replies
            assert reply.msg_type is MessageType.ERROR
            assert reply.request_id == 77
            # ... and then the connection closes cleanly (EOF, not RST).
            assert sock.recv(65536) == b""
        finally:
            sock.close()

    def test_bad_magic_closes_without_error_frame(self, tcp_server):
        server, _codec, _space = tcp_server
        sock = socket.create_connection(server.address)
        try:
            sock.settimeout(2.0)
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
            # Sync is lost, no request id is trustworthy: just EOF.
            assert sock.recv(65536) == b""
        finally:
            sock.close()

    def test_server_survives_for_other_clients(self, tcp_server):
        server, codec, _space = tcp_server
        bad = socket.create_connection(server.address)
        try:
            bad.sendall(b"\x00" * 32)
        finally:
            bad.close()
        connection = open_socket_connection(server.address)
        try:
            client = SpaceClient(connection, codec, request_timeout=2.0)
            assert client.ping()
        finally:
            connection.close()


class TestNamelessDictField:
    """Satellite 2: a dict member without a name is a protocol error."""

    def test_nameless_dict_member_rejected(self):
        codec = make_codec()
        data = codec.encode(LindaTuple("k", {"a": 1}))
        hostile = data.replace(b'<field name="a"', b"<field")
        with pytest.raises(ProtocolError, match="name"):
            codec.decode(hostile)

    def test_named_dict_still_roundtrips(self):
        codec = make_codec()
        item = LindaTuple("k", {"a": 1, "b": "two"})
        assert codec.decode(codec.encode(item)) == item


class TestTupleFieldRoundTrip:
    """Satellite 3: tuple fields survive the wire as tuples."""

    def test_codec_roundtrip_preserves_tuple(self):
        codec = make_codec()
        item = LindaTuple("k", (1, 2))
        back = codec.decode(codec.encode(item))
        assert back == item
        assert isinstance(back.fields[1], tuple)

    def test_list_still_roundtrips_as_list(self):
        codec = make_codec()
        back = codec.decode(codec.encode(LindaTuple("k", [1, 2])))
        assert isinstance(back.fields[1], list)

    def test_tuple_vs_list_matching_over_server(self):
        codec = make_codec()
        space = TupleSpace(clock=ManualClock())
        server = SpaceServer(space, codec)
        client = SpaceClient(LocalConnection(server), codec)
        client.write(LindaTuple("k", (1, 2)))
        # Before the fix the stored field had decayed to [1, 2] and this
        # exact-value template missed.
        got = client.take_if_exists(TupleTemplate("k", (1, 2)))
        assert got == LindaTuple("k", (1, 2))
        assert isinstance(got.fields[1], tuple)


class TestXmlTextCharacters:
    """A CR survives the XML wire; an unencodable character is refused
    at encode time and the connection stays up."""

    def test_carriage_return_round_trips_over_xml(self):
        codec = make_codec()
        client = SpaceClient(LocalConnection(SpaceServer(TupleSpace(), codec)), codec)
        client.write(LindaTuple("k", "a\rb", "c\r\nd"))
        got = client.take_if_exists(TupleTemplate("k", str, str))
        assert got == LindaTuple("k", "a\rb", "c\r\nd")

    @pytest.mark.parametrize("text", ["x\x01y", "\ud800", "\uffff"])
    def test_unencodable_string_leaves_the_connection_usable(self, text):
        codec = make_codec()
        client = SpaceClient(LocalConnection(SpaceServer(TupleSpace(), codec)), codec)
        with pytest.raises(ProtocolError, match="XML 1.0"):
            client.write(LindaTuple("k", text))
        assert client.ping()
        client.write(LindaTuple("k", "ok"))
        assert client.take_if_exists(TupleTemplate("k", str)) == LindaTuple("k", "ok")


class TestPollEventsNonBlocking:
    """Satellite 4: poll_events must never park in a blocking recv."""

    def test_poll_events_returns_with_no_pending_bytes(self, tcp_server):
        server, codec, _space = tcp_server
        connection = open_socket_connection(server.address)
        try:
            client = SpaceClient(connection, codec, request_timeout=2.0)
            assert client.ping()
            result = []
            poller = threading.Thread(
                target=lambda: result.append(client.poll_events()),
                daemon=True,
            )
            poller.start()
            poller.join(timeout=2.0)
            # Before the fix this thread sat in sock.recv forever.
            assert not poller.is_alive(), "poll_events blocked"
            assert result == [0]
        finally:
            connection.close()

    def test_poll_events_still_drains_real_events(self, tcp_server):
        server, codec, _space = tcp_server
        connection = open_socket_connection(server.address)
        try:
            client = SpaceClient(connection, codec, request_timeout=2.0)
            events = []
            client.notify(Part(station="drill"), events.append)
            client.write(Part("sn-1", "drill", 1.0))
            # The event may ride in with the WRITE_ACK (dispatched during
            # the write) or arrive later (drained by poll_events); either
            # way poll_events must keep returning without blocking.
            import time

            for _ in range(100):
                client.poll_events()
                if events:
                    break
                time.sleep(0.02)
            assert len(events) == 1
            assert client.poll_events() == 0
        finally:
            connection.close()


class _CannedConnection:
    """Connection stub replaying scripted response frames."""

    def __init__(self, codec):
        self.codec = codec
        self.closed = False
        self._rx = bytearray()
        self.sent: list[bytes] = []

    def queue(self, message: Message) -> None:
        self._rx += encode_message(message, self.codec)

    def send_bytes(self, data: bytes) -> None:
        self.sent.append(data)

    def recv_bytes(self, max_bytes: int = 65536) -> bytes:
        data = bytes(self._rx[:max_bytes])
        del self._rx[: len(data)]
        return data

    def recv_ready(self) -> bool:
        return bool(self._rx)

    def close(self) -> None:
        self.closed = True


class TestRequestIdWrap:
    """Satellite 5: ids wrap modulo 2**32; staleness is wrap-safe."""

    def test_id_wraps_instead_of_struct_error(self):
        codec = make_codec()
        connection = _CannedConnection(codec)
        client = SpaceClient(connection, codec)
        client.session.last_request_id = REQUEST_ID_MODULUS - 2
        for expected in (REQUEST_ID_MODULUS - 1, 1, 2):
            connection.queue(Message(MessageType.PONG, expected))
            # Before the fix the second ping died inside struct.pack('>I').
            assert client.ping()
            header = connection.sent[-1][: HEADER.size]
            _magic, _type, request_id, _length = HEADER.unpack(header)
            assert request_id == expected

    def test_id_zero_is_skipped(self):
        # 0 is reserved for connection-fatal ERROR frames.
        codec = make_codec()
        connection = _CannedConnection(codec)
        client = SpaceClient(connection, codec)
        client.session.last_request_id = REQUEST_ID_MODULUS - 1
        connection.queue(Message(MessageType.PONG, 1))
        assert client.ping()

    def test_stale_response_across_wrap(self):
        """A late duplicate from just before the wrap is *stale*, not an
        'unknown request' protocol error."""
        codec = make_codec()
        connection = _CannedConnection(codec)
        client = SpaceClient(connection, codec)
        client.session.last_request_id = REQUEST_ID_MODULUS - 1
        # Current request will be id 1 (post-wrap).  A duplicate response
        # for the *previous* request (id 2**32 - 1) arrives first.
        connection.queue(Message(MessageType.PONG, REQUEST_ID_MODULUS - 1))
        connection.queue(Message(MessageType.PONG, 1))
        assert client.ping()
        assert client.stale_responses == 1

    def test_future_response_still_rejected(self):
        codec = make_codec()
        connection = _CannedConnection(codec)
        client = SpaceClient(connection, codec)
        connection.queue(Message(MessageType.PONG, 1000))
        with pytest.raises(ProtocolError, match="unknown request"):
            client.ping()

    def test_sim_client_id_wraps_instead_of_struct_error(self):
        """The simulated board client wraps like the socket clients."""
        sim = Simulator()
        codec = make_codec()
        space = TupleSpace(clock=SimClock(sim))
        server = SpaceServer(space, codec, timers=SimTimers(sim))
        tx = SharedMemoryChannel(sim, name="tx")
        rx = SharedMemoryChannel(sim, name="rx")
        parser = StreamParser(codec)
        seen = []

        class Replies:
            def send(self, message):
                rx.write(encode_message(message, codec))

        def pump():
            while True:
                yield tx.wait_readable()
                for message in parser.feed(tx.read()):
                    seen.append(message.request_id)
                    server.handle(Replies(), message)

        client = SimSpaceClient(sim, tx, rx, codec)
        client.session.last_request_id = REQUEST_ID_MODULUS - 2
        results = []

        def program():
            results.append((yield from client.ping()))
            # Before the fix this request died inside struct.pack('>I').
            results.append((yield from client.ping()))

        sim.spawn(pump(), name="direct-server")
        sim.spawn(program(), name="board")
        sim.run(until=10.0)
        assert results == [True, True]
        assert seen == [REQUEST_ID_MODULUS - 1, 1]

    def test_header_field_width_matches_modulus(self):
        assert struct.calcsize(">I") == 4
        assert REQUEST_ID_MODULUS == 1 << 32


def _sim_client_against(respond):
    """A SimSpaceClient whose channel peer answers each request frame
    with ``respond(message)`` (a list of replies)."""
    sim = Simulator()
    codec = make_codec()
    tx = SharedMemoryChannel(sim, name="tx")
    rx = SharedMemoryChannel(sim, name="rx")
    parser = StreamParser(codec)

    def fake_server():
        while True:
            yield tx.wait_readable()
            for message in parser.feed(tx.read()):
                for reply in respond(message):
                    rx.write(encode_message(reply, codec))

    sim.spawn(fake_server(), name="fake-server")
    return sim, SimSpaceClient(sim, tx, rx, codec)


class TestFrontEndDrift:
    """Each test failed while every front end had its own protocol copy."""

    def test_loopback_negotiates_binary(self):
        codec = make_codec()
        server = SpaceServer(TupleSpace(clock=ManualClock()), codec)
        client = SpaceClient(LocalConnection(server), codec)
        assert client.hello() == "binary"
        client.write(Part("sn-1", "drill", 2.5))
        assert client.take_if_exists(Part(serial="sn-1")) == Part("sn-1", "drill", 2.5)

    def test_async_negotiate_falls_back_to_xml(self):
        codec = make_codec()

        async def answer_errors(reader, writer):
            # A server predating HELLO: ERROR for every frame's id.
            parser = StreamParser(codec)
            while data := await reader.read(65536):
                for message in parser.feed(data):
                    writer.write(encode_message(Message(
                        MessageType.ERROR, message.request_id,
                        {"text": f"unexpected message type {message.msg_type.name}"},
                    ), codec))
            writer.close()

        async def scenario():
            listener = await asyncio.start_server(answer_errors, "127.0.0.1", 0)
            try:
                client = await AsyncSpaceClient.connect(
                    listener.sockets[0].getsockname(), codec, request_timeout=2.0
                )
                assert client.wire_codec == "xml"
                # Still talking (XML) to the server: its ERROR surfaces.
                with pytest.raises(SpaceError, match="PING"):
                    await client.ping()
                await client.close()
            finally:
                listener.close()
                await listener.wait_closed()

        asyncio.run(scenario())

    def test_sim_client_fails_on_connection_fatal_error(self):
        sim, client = _sim_client_against(
            lambda message: [Message(MessageType.ERROR, 0, {"text": "lost sync"})]
        )
        caught = []

        def program():
            try:
                yield from client.ping()
            except SpaceError as exc:
                caught.append(str(exc))

        sim.spawn(program(), name="board")
        sim.run(until=10.0)
        assert caught == ["lost sync"]

    def test_sim_client_counts_duplicated_replies_stale(self):
        sim, client = _sim_client_against(
            lambda message: [Message(MessageType.PONG, message.request_id)] * 2
        )
        results = []

        def program():
            results.append((yield from client.ping()))
            results.append((yield from client.ping()))

        sim.spawn(program(), name="board")
        sim.run(until=10.0)
        assert results == [True, True]
        assert client.stale_responses == 2
