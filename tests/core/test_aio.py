"""The asyncio front end: negotiation, pipelining, backpressure, shutdown."""

import asyncio

import pytest

from repro.core import (
    Entry,
    LindaTuple,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core.aio import (
    AsyncSpaceClient,
    AsyncSpaceServer,
    _AsyncConnection,
    memory_pipe,
)
from repro.core.errors import (
    ConnectionClosedError,
    RequestTimeoutError,
    SpaceError,
)
from repro.core.protocol import (
    HEADER,
    MAGIC,
    Message,
    MessageType,
    StreamParser,
    encode_message,
)
from repro.core.server import SpaceServer


class Part(Entry):
    def __init__(self, serial=None, station=None, weight=None):
        self.serial = serial
        self.station = station
        self.weight = weight


def make_codec():
    codec = XmlCodec()
    codec.register(Part)
    return codec


def run(coro):
    return asyncio.run(coro)


async def make_front(**kwargs):
    codec = make_codec()
    space = TupleSpace()
    server = SpaceServer(space, codec)
    front = AsyncSpaceServer(server, port=0, **kwargs)
    await front.start()
    return front, codec, space


class TestBasicOperations:
    def test_negotiated_write_take_roundtrip(self):
        async def scenario():
            front, codec, space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                assert client.wire_codec == "binary"
                ack = await client.write(Part("sn-1", "drill", 2.5), lease=60)
                assert ack["lease_id"] > 0
                got = await client.take(Part(serial="sn-1"))
                assert got == Part("sn-1", "drill", 2.5)
                assert len(space) == 0
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_legacy_client_stays_on_xml(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, codecs=None, request_timeout=2.0
                )
                assert client.wire_codec == "xml"
                assert await client.ping()
                await client.write(LindaTuple("k", (1, 2)))
                got = await client.take_if_exists(TupleTemplate("k", (1, 2)))
                assert got is not None and isinstance(got.fields[1], tuple)
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_read_if_exists_and_nulls(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                assert await client.read_if_exists(Part(serial="nope")) is None
                assert await client.take(Part(serial="nope"), timeout=0.05) is None
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_server_error_raises_space_error(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                with pytest.raises(SpaceError):
                    await client.cancel_lease(999999)
                await client.close()
            finally:
                await front.stop()

        run(scenario())


class TestPipelining:
    def test_blocking_take_resolved_by_pipelined_write(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=5.0
                )
                take = asyncio.ensure_future(
                    client.take(Part(serial="sn-2"), timeout=5)
                )
                await asyncio.sleep(0.02)  # take parks server-side
                await client.write(Part("sn-2", "mill", 1.0))
                got = await take
                assert got.serial == "sn-2"
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_many_requests_in_flight(self):
        async def scenario():
            front, codec, space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=5.0
                )
                writes = [
                    client.write(Part(f"sn-{n}", "drill", float(n)))
                    for n in range(50)
                ]
                await asyncio.gather(*writes)
                assert len(space) == 50
                takes = [
                    client.take_if_exists(Part(serial=f"sn-{n}"))
                    for n in range(50)
                ]
                results = await asyncio.gather(*takes)
                assert all(r is not None for r in results)
                assert len(space) == 0
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_notify_events_between_connections(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                listener = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                writer = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                events = []
                await listener.notify(Part(station="drill"), events.append)
                await writer.write(Part("sn-1", "drill", 1.0))
                for _ in range(100):
                    if events:
                        break
                    await asyncio.sleep(0.01)
                assert len(events) == 1
                await listener.close()
                await writer.close()
            finally:
                await front.stop()

        run(scenario())

    def test_request_timeout_raises(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=0.1
                )
                # server-side timeout (5s) far exceeds the client's 0.1s
                with pytest.raises(RequestTimeoutError):
                    await client.take(Part(serial="never"), timeout=5)
                await client.close()
            finally:
                await front.stop()

        run(scenario())


class TestLocalPairs:
    def test_open_local_needs_no_socket(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                reader, writer = front.open_local()
                client = AsyncSpaceClient(reader, writer, codec, request_timeout=2.0)
                assert await client.hello() == "binary"
                await client.write(LindaTuple("x", 1))
                assert await client.take_if_exists(TupleTemplate("x", 1))
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_many_local_clients(self):
        async def scenario():
            front, codec, space = await make_front()
            try:
                async def one(n):
                    reader, writer = front.open_local()
                    client = AsyncSpaceClient(
                        reader, writer, codec, request_timeout=5.0
                    )
                    await client.hello()
                    await client.write(LindaTuple("n", n))
                    got = await client.take(TupleTemplate("n", n), timeout=5)
                    await client.close()
                    return got is not None

                results = await asyncio.gather(*(one(n) for n in range(200)))
                assert all(results)
                assert len(space) == 0
            finally:
                await front.stop()

        run(scenario())


class TestMalformedFrames:
    def test_error_reply_then_close(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                reader, writer = await asyncio.open_connection(*front.address)
                body = b"<not-xml"
                writer.write(
                    HEADER.pack(MAGIC, int(MessageType.WRITE), 55, len(body))
                    + body
                )
                await writer.drain()
                parser = StreamParser(codec)
                replies = []
                while not replies:
                    data = await asyncio.wait_for(reader.read(65536), 2.0)
                    assert data, "closed without ERROR reply"
                    replies.extend(parser.feed(data))
                assert replies[0].msg_type is MessageType.ERROR
                assert replies[0].request_id == 55
                assert await asyncio.wait_for(reader.read(65536), 2.0) == b""
                writer.close()
                assert front.protocol_errors == 1
            finally:
                await front.stop()

        run(scenario())

    def test_bad_magic_closes_silently(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                reader, writer = await asyncio.open_connection(*front.address)
                writer.write(b"GET / HTTP/1.1\r\n\r\n")
                await writer.drain()
                assert await asyncio.wait_for(reader.read(65536), 2.0) == b""
                writer.close()
            finally:
                await front.stop()

        run(scenario())


class _ScriptedReader:
    """Feeds scripted chunks, then EOF."""

    def __init__(self, chunks):
        self._chunks = list(chunks)

    async def read(self, max_bytes=65536):
        if self._chunks:
            return self._chunks.pop(0)
        return b""


class _GatedWriter:
    """Collects writes; ``drain`` blocks until the gate opens."""

    def __init__(self):
        self.chunks = []
        self.gate = None
        self.closed = False

    def write(self, data):
        self.chunks.append(bytes(data))

    async def drain(self):
        if self.gate is not None:
            await self.gate

    def close(self):
        self.closed = True

    async def wait_closed(self):
        return None


class TestBackpressure:
    def test_reader_pauses_until_writer_drains(self):
        async def scenario():
            front, codec, _space = await make_front(
                high_water=8, resume_bytes=0, drain_grace=1.0
            )
            try:
                loop = asyncio.get_running_loop()
                pings = b"".join(
                    encode_message(Message(MessageType.PING, n), codec)
                    for n in range(1, 4)
                )
                reader = _ScriptedReader([pings, pings])
                writer = _GatedWriter()
                writer.gate = loop.create_future()
                conn = _AsyncConnection(front, reader, writer)
                front._track(conn)
                await asyncio.sleep(0.05)
                # Three PONGs (33 bytes) sit undrained: over high_water,
                # so the reader must be parked, second chunk unread.
                assert front.backpressure_pauses == 1
                assert front.requests == 3
                # Open the gate: writer drains, reader resumes, chunk 2
                # dispatches, EOF closes the connection.
                writer.gate.set_result(None)
                await asyncio.sleep(0.05)
                assert front.requests == 6
                assert front.connections_open == 0
                flushed = b"".join(writer.chunks)
                assert flushed.count(bytes([int(MessageType.PONG)])) >= 6
            finally:
                await front.stop()

        run(scenario())

    def test_slow_consumer_is_closed(self):
        async def scenario():
            front, codec, _space = await make_front(
                high_water=8, resume_bytes=0, limit_bytes=24, drain_grace=0.05
            )
            try:
                loop = asyncio.get_running_loop()
                pings = b"".join(
                    encode_message(Message(MessageType.PING, n), codec)
                    for n in range(1, 5)
                )
                reader = _ScriptedReader([pings])
                writer = _GatedWriter()
                writer.gate = loop.create_future()  # never opened
                conn = _AsyncConnection(front, reader, writer)
                front._track(conn)
                await asyncio.sleep(0.3)
                # Four 11-byte PONGs exceed the 24-byte hard cap with the
                # writer wedged: the connection must be closed, not
                # buffered without bound.
                assert front.slow_consumer_closes >= 1
                assert front.connections_open == 0
            finally:
                await front.stop()

        run(scenario())


class TestShutdownAndStats:
    def test_graceful_stop_fails_pending_and_reaps_waiters(self):
        async def scenario():
            front, codec, _space = await make_front()
            client = await AsyncSpaceClient.connect(
                front.address, codec, request_timeout=10.0
            )
            take = asyncio.ensure_future(
                client.take(Part(serial="never"), timeout=30)
            )
            await asyncio.sleep(0.05)
            await front.stop()
            with pytest.raises(ConnectionClosedError):
                await take
            assert front.server.waiters_reaped == 1
            assert front.connections_open == 0
            await client.close()

        run(scenario())

    def test_stats_message(self):
        async def scenario():
            front, codec, _space = await make_front()
            try:
                client = await AsyncSpaceClient.connect(
                    front.address, codec, request_timeout=2.0
                )
                await client.write(Part("sn-1"))
                stats = await client.stats()
                assert int(stats["connections_open"]) == 1
                assert int(stats["negotiated_binary"]) == 1
                assert int(stats["requests"]) >= 2
                assert int(stats["requests_handled"]) >= 1
                await client.close()
            finally:
                await front.stop()

        run(scenario())

    def test_health_endpoint(self):
        async def scenario():
            front, codec, _space = await make_front(health_port=0)
            try:
                async def http_get(path):
                    reader, writer = await asyncio.open_connection(
                        *front.health_address
                    )
                    writer.write(
                        f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode()
                    )
                    await writer.drain()
                    raw = await asyncio.wait_for(reader.read(65536), 2.0)
                    writer.close()
                    return raw

                health = await http_get("/health")
                assert health.startswith(b"HTTP/1.1 200")
                assert b'"status": "ok"' in health
                stats = await http_get("/stats")
                assert b"connections_total" in stats
                missing = await http_get("/nope")
                assert missing.startswith(b"HTTP/1.1 404")
            finally:
                await front.stop()

        run(scenario())


class TestMemoryPipe:
    def test_pipe_carries_chunks_in_order(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            reader, writer = memory_pipe(loop)
            writer.write(b"ab")
            writer.write(b"cd")
            assert await reader.read(3) == b"abc"
            assert await reader.read(10) == b"d"
            writer.close()
            assert await reader.read(10) == b""

        run(scenario())

    def test_reader_wakes_on_late_write(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            reader, writer = memory_pipe(loop)

            async def later():
                await asyncio.sleep(0.01)
                writer.write(b"x")

            task = loop.create_task(later())
            assert await asyncio.wait_for(reader.read(1), 1.0) == b"x"
            await task

        run(scenario())
