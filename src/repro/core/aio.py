"""Asyncio wire front-end: one event loop serving thousands of clients.

This is the one socket front end over a
:class:`~repro.core.server.SpaceServer`; the paper's socket wrapper
(Sec. 4.2), :class:`~repro.core.transports.SocketSpaceServer`, is this
server run on a loop thread for blocking callers.  Each connection
drives the sans-IO :class:`~repro.core.server.ServerConnection` core.
The space engine stays single-threaded; the loop multiplexes
connections around it:

* **single-writer send path per connection** — responses, notify events
  and timer-driven timeouts all append to one per-connection outbox
  drained by one writer task, so frames never interleave;
* **backpressure** — a connection whose outbox passes the high-water
  mark stops having its requests read until the writer drains below the
  resume mark (TCP pushes back on the client); a consumer so slow the
  hard cap is passed is closed and counted, never buffered unboundedly;
* **request pipelining/batching** — every frame completed by one socket
  read is dispatched back-to-back before the next read, and the outbox
  is flushed once per batch;
* **codec negotiation** — the HELLO/HELLO_ACK exchange of
  :mod:`repro.core.protocol` switches a connection from XML to the
  binary body codec; clients that never send HELLO speak the historical
  XML protocol unchanged;
* **graceful shutdown and a health/stats endpoint** — ``stop()`` parks
  no request forever (waiters are reaped through ``session_closed``),
  and a tiny HTTP listener answers ``/health`` and ``/stats`` for
  supervisors, modelled on gateway-daemon layouts.

Timer callbacks run on the loop via :class:`LoopTimers`, so — like the
simulated stack — *everything* touching the space runs on one thread
and no locks are needed.  See docs/wire.md for the full protocol story.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional

from repro.core.errors import (
    ConnectionClosedError,
    ProtocolError,
    RequestTimeoutError,
)
from repro.core.client import SpaceOperations
from repro.core.protocol import (
    Call,
    ClientSession,
    Message,
    MessageType,
    encode_message,
)
from repro.core.server import ServerConnection, SpaceServer, Timers
from repro.core.xmlcodec import XmlCodec

#: Outbox byte thresholds: pause reading a connection above ``HIGH_WATER``,
#: resume below ``RESUME``, close a slow consumer above ``LIMIT``.
HIGH_WATER = 64 * 1024
RESUME = 16 * 1024
LIMIT = 4 * 1024 * 1024


class LoopTimers(Timers):
    """Blocking-request timeouts on the event loop (``loop.call_later``).

    The returned ``TimerHandle`` exposes ``cancel()`` — exactly the
    :class:`~repro.core.server.Timers` handle protocol — and the
    callback runs on the loop thread, serialised with request dispatch.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop

    def call_later(self, delay: float, fn) -> asyncio.TimerHandle:
        return self._loop.call_later(delay, fn)


class _AsyncConnection(ServerConnection):
    """One client connection: the connection core plus an outbox and
    reader + writer tasks.

    Duck-typed over ``(reader, writer)`` so the same machinery serves
    real TCP streams and the in-loop :func:`memory_pipe` endpoints the
    concurrency benchmark multiplexes by the thousands.

    This object is also the *session* handed to ``SpaceServer.handle``:
    ``send`` encodes with the connection's negotiated codec and appends
    to the outbox.
    """

    def __init__(self, front, reader, writer):
        super().__init__(front.server, self.enqueue)
        self.front = front
        self.reader = reader
        self.writer = writer
        self._outbox = bytearray()
        self._loop = front._loop
        self._send_waiter: Optional[asyncio.Future] = None
        self._resume_waiter: Optional[asyncio.Future] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._reader_task: Optional[asyncio.Task] = None

    # -- session protocol (called by SpaceServer and timer callbacks) -------

    def send(self, message: Message) -> None:
        # The core's send, with ``encode_message`` resolved through this
        # module: the per-layer benchmark trace wraps it here.
        if not self.closed:
            self.enqueue(encode_message(message, self.wire))

    def enqueue(self, data: bytes) -> None:
        self._outbox += data
        if len(self._outbox) > self.front.limit_bytes:
            # Slow consumer: notify events kept arriving while the peer
            # stopped draining.  Dropping the connection bounds memory;
            # buffering forever would not.
            self.front.slow_consumer_closes += 1
            self.close()
            return
        waiter = self._send_waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    # -- connection core hooks -------------------------------------------------

    def dispatch(self, message: Message) -> None:
        front = self.front
        front.requests += 1
        if message.msg_type is MessageType.STATS:
            self.send(Message(
                MessageType.STATS_ACK, message.request_id, front.stats()
            ))
            return
        self.server.handle(self, message)

    def hello(self, message: Message) -> str:
        front = self.front
        front.requests += 1
        chosen = super().hello(message)
        front.negotiated[chosen] = front.negotiated.get(chosen, 0) + 1
        return chosen

    def reject(self, exc: ProtocolError) -> None:
        self.front.protocol_errors += 1
        super().reject(exc)

    # -- tasks ---------------------------------------------------------------

    async def run(self) -> None:
        """Read/dispatch until EOF or close, then flush and tear down."""
        self._writer_task = self._loop.create_task(self._write_loop())
        self._reader_task = self._loop.create_task(self._read_loop())
        try:
            # close() (shutdown, slow-consumer cap) cancels the reader
            # task, so a read parked on an idle socket never wedges
            # teardown.
            await self._reader_task
        except asyncio.CancelledError:
            pass
        finally:
            self.close()
            try:
                await asyncio.wait_for(
                    self._writer_task, self.front.drain_grace
                )
            except (asyncio.TimeoutError, asyncio.CancelledError, OSError):
                self._writer_task.cancel()
            self.front._connection_done(self)

    async def _read_loop(self) -> None:
        while not self.closed:
            try:
                data = await self.reader.read(65536)
            except (OSError, ConnectionError, asyncio.IncompleteReadError):
                return
            if not data:
                return
            self.front.bytes_in += len(data)
            # Every frame one read completed is dispatched back-to-back.
            if not self.feed(data):
                return
            if len(self._outbox) > self.front.high_water:
                # Backpressure: stop reading this connection's requests
                # until the writer drains its responses.
                self.front.backpressure_pauses += 1
                self._resume_waiter = self._loop.create_future()
                await self._resume_waiter

    async def _write_loop(self) -> None:
        writer = self.writer
        try:
            while True:
                if not self._outbox:
                    if self.closed:
                        return
                    self._send_waiter = self._loop.create_future()
                    await self._send_waiter
                    continue
                chunk = bytes(self._outbox)
                del self._outbox[: len(chunk)]
                writer.write(chunk)
                await writer.drain()
                self.front.bytes_out += len(chunk)
                resume = self._resume_waiter
                if (
                    resume is not None
                    and not resume.done()
                    and len(self._outbox) <= self.front.resume_bytes
                ):
                    resume.set_result(None)
        except (OSError, ConnectionError):
            return

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Stop reading, let the writer flush what is queued, then die.

        Reaps parked blocking requests: a dead connection's TAKE must
        never consume a tuple into the void.
        """
        if self.closed:
            return
        super().close()
        for waiter in (self._send_waiter, self._resume_waiter):
            if waiter is not None and not waiter.done():
                waiter.set_result(None)
        reader_task = self._reader_task
        if reader_task is not None and not reader_task.done():
            reader_task.cancel()


class AsyncSpaceServer:
    """Asyncio front end over a :class:`SpaceServer` (ROADMAP item 2).

    Usage::

        front = AsyncSpaceServer(space_server, port=0)
        await front.start()
        ...                       # front.address is the bound (host, port)
        await front.stop()

    ``health_port`` additionally binds a minimal HTTP listener answering
    ``GET /health`` and ``GET /stats`` with JSON, so a supervisor can
    probe the daemon without speaking the space protocol.
    """

    def __init__(
        self,
        server: SpaceServer,
        host: str = "127.0.0.1",
        port: int = 0,
        health_port: Optional[int] = None,
        high_water: int = HIGH_WATER,
        resume_bytes: int = RESUME,
        limit_bytes: int = LIMIT,
        drain_grace: float = 2.0,
    ):
        self.server = server
        self.host = host
        self.port = port
        self.health_port = health_port
        self.high_water = high_water
        self.resume_bytes = resume_bytes
        self.limit_bytes = limit_bytes
        self.drain_grace = drain_grace
        self.address = None
        self.health_address = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._listener: Optional[asyncio.AbstractServer] = None
        self._health_listener: Optional[asyncio.AbstractServer] = None
        self._connections: dict[int, _AsyncConnection] = {}
        self._conn_tasks: dict[int, asyncio.Task] = {}
        self._stopping = False
        # -- counters surfaced by /stats and the STATS message
        self.connections_total = 0
        self.requests = 0
        self.protocol_errors = 0
        self.slow_consumer_closes = 0
        self.backpressure_pauses = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.negotiated: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "AsyncSpaceServer":
        self._loop = asyncio.get_running_loop()
        # All dispatch and every timeout callback runs on this loop —
        # the single-threaded-engine invariant, without locks.
        self.server.timers = LoopTimers(self._loop)
        self._listener = await asyncio.start_server(
            self._client_connected, self.host, self.port
        )
        self.address = self._listener.sockets[0].getsockname()
        if self.health_port is not None:
            self._health_listener = await asyncio.start_server(
                self._health_connected, self.host, self.health_port
            )
            self.health_address = self._health_listener.sockets[0].getsockname()
        return self

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, flush and close every
        connection (reaping its parked waiters), release the ports."""
        self._stopping = True
        for listener in (self._listener, self._health_listener):
            if listener is not None:
                listener.close()
        for conn in list(self._connections.values()):
            conn.close()
        tasks = list(self._conn_tasks.values())
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for listener in (self._listener, self._health_listener):
            if listener is not None:
                await listener.wait_closed()

    async def __aenter__(self) -> "AsyncSpaceServer":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    # -- connections ---------------------------------------------------------

    def _client_connected(self, reader, writer) -> None:
        if self._stopping:
            writer.close()
            return
        self._track(_AsyncConnection(self, reader, writer))

    def open_local(self):
        """In-loop loopback connect: no socket, no file descriptor.

        Returns a ``(reader, writer)`` pair speaking to a fresh server
        connection — what the 10k-client concurrency benchmark uses to
        go beyond the process fd limit.  Must run inside the loop that
        :meth:`start` ran on (or pass the pair to
        :class:`AsyncSpaceClient` in the same loop).
        """
        client_reader, server_writer = memory_pipe(self._loop)
        server_reader, client_writer = memory_pipe(self._loop)
        self._track(_AsyncConnection(self, server_reader, server_writer))
        return client_reader, client_writer

    def _track(self, conn: _AsyncConnection) -> None:
        self.connections_total += 1
        self._connections[id(conn)] = conn
        self._conn_tasks[id(conn)] = self._loop.create_task(conn.run())

    def _connection_done(self, conn: _AsyncConnection) -> None:
        self._connections.pop(id(conn), None)
        self._conn_tasks.pop(id(conn), None)
        try:
            conn.writer.close()
        except (OSError, RuntimeError):
            pass

    @property
    def connections_open(self) -> int:
        return len(self._connections)

    # -- stats / health ------------------------------------------------------

    def stats(self) -> dict:
        """Flat scalar counters (STATS message params / ``/stats`` JSON)."""
        return {
            "connections_open": self.connections_open,
            "connections_total": self.connections_total,
            "requests": self.requests,
            "requests_handled": self.server.requests_handled,
            "errors_sent": self.server.errors_sent,
            "waiters_reaped": self.server.waiters_reaped,
            "protocol_errors": self.protocol_errors,
            "slow_consumer_closes": self.slow_consumer_closes,
            "backpressure_pauses": self.backpressure_pauses,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "negotiated_binary": self.negotiated.get("binary", 0),
            "negotiated_xml": self.negotiated.get("xml", 0),
        }

    async def _health_connected(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) > 1 else "/"
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            if path == "/health":
                status, payload = "200 OK", {"status": "ok"}
            elif path == "/stats":
                status, payload = "200 OK", self.stats()
            else:
                status, payload = "404 Not Found", {"error": "not found"}
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            writer.write(
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n".encode("latin-1") + body
            )
            await writer.drain()
        except (OSError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
            except (OSError, RuntimeError):
                pass


class AsyncSpaceClient(SpaceOperations):
    """Pipelined asyncio client: many requests in flight per connection.

    Unlike the strictly-sequential :class:`~repro.core.client.SpaceClient`
    (the paper's embedded client), this one multiplexes: each request
    gets a future parked in the :class:`ClientSession` under its
    (wrap-safe) id, and one reader task resolves them as responses
    arrive, dispatching interleaved ``NOTIFY_EVENT`` messages to
    registered callbacks on the way.  The space operations of
    :class:`SpaceOperations` return awaitables here.
    """

    def __init__(
        self,
        reader,
        writer,
        codec: XmlCodec,
        request_timeout: Optional[float] = None,
    ):
        self.reader = reader
        self.writer = writer
        self.codec = codec
        self.request_timeout = request_timeout
        self.session = ClientSession(codec)
        self._loop = asyncio.get_running_loop()
        self._closed = False
        self._reader_task = self._loop.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        address,
        codec: XmlCodec,
        codecs: Optional[str] = "binary,xml",
        request_timeout: Optional[float] = None,
    ) -> "AsyncSpaceClient":
        """Open a TCP connection; negotiate unless ``codecs`` is None."""
        host, port = address
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer, codec, request_timeout=request_timeout)
        if codecs is not None:
            await client.hello(codecs)
        return client

    async def stats(self) -> dict:
        return await self._call(self.session.stats())

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        self._fail_pending(ConnectionClosedError("client closed"))
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (OSError, ConnectionError, RuntimeError):
            pass

    # -- plumbing ------------------------------------------------------------

    async def _call(self, call: Call) -> Any:
        if self._closed:
            raise ConnectionClosedError("client is closed")
        future = self._loop.create_future()
        request_id, wire = self.session.start(call, future)
        try:
            try:
                self.writer.write(wire)
                await self.writer.drain()
            except (OSError, ConnectionError):
                raise ConnectionClosedError("connection closed mid-request")
            if self.request_timeout is None:
                reply = await future
            else:
                try:
                    reply = await asyncio.wait_for(future, self.request_timeout)
                except asyncio.TimeoutError:
                    # Same contract as the sync client; the response, if
                    # it ever arrives, is counted stale by the session.
                    raise RequestTimeoutError(
                        f"no response to request {request_id} within "
                        f"{self.request_timeout}s"
                    )
        finally:
            self.session.abandon(request_id)
        return call.decode(reply)

    async def _read_loop(self) -> None:
        error: Exception = ConnectionClosedError("connection closed mid-request")
        try:
            while True:
                data = await self.reader.read(65536)
                if not data:
                    break
                for future, reply in self.session.receive(data):
                    if not future.done():
                        future.set_result(reply)
        except ProtocolError as exc:
            error = exc
        except (OSError, ConnectionError, asyncio.CancelledError):
            pass
        self._fail_pending(error)

    def _fail_pending(self, exc: Exception) -> None:
        for future in self.session.drop_pending():
            if not future.done():
                future.set_exception(exc)


# -- in-loop byte pipes ------------------------------------------------------


class _MemoryReader:
    """Reader half of :func:`memory_pipe` (``await read(n)``)."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self._loop = loop
        self._buffer = bytearray()
        self._eof = False
        self._waiter: Optional[asyncio.Future] = None

    def _feed(self, data: bytes) -> None:
        self._buffer += data
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _feed_eof(self) -> None:
        self._eof = True
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def read(self, max_bytes: int = 65536) -> bytes:
        while not self._buffer:
            if self._eof:
                return b""
            self._waiter = self._loop.create_future()
            await self._waiter
        chunk = bytes(self._buffer[:max_bytes])
        del self._buffer[: len(chunk)]
        return chunk


class _MemoryWriter:
    """Writer half: quacks like ``asyncio.StreamWriter`` where needed."""

    def __init__(self, peer: _MemoryReader):
        self._peer = peer
        self._closed = False

    def write(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionClosedError("memory pipe closed")
        self._peer._feed(data)

    async def drain(self) -> None:
        return None

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._peer._feed_eof()

    async def wait_closed(self) -> None:
        return None

    def is_closing(self) -> bool:
        return self._closed


def memory_pipe(loop: asyncio.AbstractEventLoop):
    """One-directional in-loop byte pipe: ``(reader, writer)``.

    No socket, no fd — which is what lets the concurrency benchmark run
    10k+ simulated client connections in one process.
    """
    reader = _MemoryReader(loop)
    return reader, _MemoryWriter(reader)


__all__ = [
    "AsyncSpaceServer",
    "AsyncSpaceClient",
    "LoopTimers",
    "memory_pipe",
]
