"""Transports connecting clients to the space server.

Three ways to reach a :class:`~repro.core.server.SpaceServer`:

* :class:`LocalConnection` — synchronous in-process loopback (hermetic
  unit tests; no threads, no sockets);
* :class:`SocketSpaceServer` + :func:`open_socket_connection` — a real
  TCP server over localhost, the direct analog of the paper's
  "Java/socket wrapper" (Figure 4);
* the TpWIRE bridges in :mod:`repro.cosim` (Figure 5) for the
  co-simulated embedded path.

All three drive the one connection core,
:class:`~repro.core.server.ServerConnection`, and reach the server
through an RMI proxy, mirroring the paper's server-internal RMI hop.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import select
import socket
import threading
from typing import Optional

from repro.core.aio import AsyncSpaceServer, LoopTimers
from repro.core.errors import ConnectionClosedError
from repro.core.rmi import Registry, RemoteProxy
from repro.core.server import ServerConnection, SpaceServer
from repro.core.xmlcodec import XmlCodec


def _rmi_proxy(server: SpaceServer) -> RemoteProxy:
    registry = Registry()
    registry.bind("SpaceServer", server, exposed=["handle"])
    return registry.lookup("SpaceServer")


class LocalConnection:
    """Synchronous in-process connection to a space server.

    ``send_bytes`` feeds requests straight into a server connection
    (dispatching through the server's RMI proxy); responses accumulate
    in an internal buffer that ``recv_bytes`` drains.

    Single-threaded by contract: the server's timeouts must fire on the
    caller's thread (``NullTimers``, ``SimTimers`` or a caller-driven
    ``Timers``), so a server on :class:`~repro.core.aio.LoopTimers`,
    whose callbacks run on an event loop's thread, is refused.
    """

    def __init__(self, server: SpaceServer):
        if isinstance(server.timers, LoopTimers):
            raise TypeError(
                "LocalConnection is single-threaded; a server on LoopTimers "
                "fires its timeouts on the event loop's thread"
            )
        self._rx = bytearray()
        self._session = ServerConnection(server, self._deliver, _rmi_proxy(server))

    @property
    def closed(self) -> bool:
        return self._session.closed

    def _deliver(self, data: bytes) -> None:
        self._rx.extend(data)

    def send_bytes(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionClosedError("connection is closed")
        self._session.feed(data)

    def recv_bytes(self, max_bytes: int = 65536) -> bytes:
        data = bytes(self._rx[:max_bytes])
        del self._rx[: len(data)]
        return data

    def recv_ready(self) -> bool:
        """Bytes pending?  (Non-blocking drain for ``poll_events``.)"""
        return bool(self._rx)

    def close(self) -> None:
        # Reaps blocking requests parked by this session: a closed
        # connection must never consume a later write.
        self._session.close()


class SocketSpaceServer:
    """Blocking-world TCP front end: :class:`AsyncSpaceServer` run on a
    loop thread, dispatching through the server's RMI proxy.

    All request handling and every timer callback run on that one
    thread, so the single-threaded space engine needs no locks.
    ``address`` is the bound ``(host, port)`` once :meth:`start` ran.
    """

    def __init__(self, server: SpaceServer, host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self._front = AsyncSpaceServer(server, host, port)
        self._front.target = _rmi_proxy(server)
        self.address = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Start the loop thread and bind the listener.  A failure to
        bind propagates after the thread is stopped and joined, so the
        server is left as before and ``start()`` may be retried."""
        if self._thread is not None:
            return
        loop = asyncio.new_event_loop()
        thread = threading.Thread(
            target=loop.run_forever, name="space-server-loop", daemon=True
        )
        thread.start()
        try:
            asyncio.run_coroutine_threadsafe(self._front.start(), loop).result()
        except BaseException:
            _halt(loop, thread, join_timeout=2.0)
            raise
        self._loop, self._thread = loop, thread
        self.address = self._front.address

    def stop(self, join_timeout: float = 2.0) -> None:
        """Close every connection (waking clients parked in ``recv``,
        reaping their parked requests), then stop and join the loop
        thread.  Every wait is bounded; calling it twice is harmless."""
        thread, loop = self._thread, self._loop
        if thread is None:
            return
        self._thread = self._loop = None
        stopping = asyncio.run_coroutine_threadsafe(self._front.stop(), loop)
        try:
            stopping.result(timeout=join_timeout)
        except concurrent.futures.TimeoutError:
            stopping.cancel()
        _halt(loop, thread, join_timeout)

    def __enter__(self) -> "SocketSpaceServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def _halt(
    loop: asyncio.AbstractEventLoop, thread: threading.Thread, join_timeout: float
) -> None:
    """Stop ``loop`` and join the thread running it; the loop is closed
    once the thread has exited."""
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=join_timeout)
    if not thread.is_alive():
        loop.close()


def open_socket_connection(address) -> "SocketConnection":
    """Connect to a :class:`SocketSpaceServer` at ``(host, port)``."""
    sock = socket.create_connection(address)
    return SocketConnection(sock)


class SocketConnection:
    """Blocking socket adapter with the client connection interface."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.closed = False

    def send_bytes(self, data: bytes) -> None:
        self._sock.sendall(data)

    def recv_bytes(self, max_bytes: int = 65536) -> bytes:
        data = self._sock.recv(max_bytes)
        if not data:
            self.closed = True
        return data

    def recv_ready(self) -> bool:
        """Bytes pending?  A zero-timeout select, so event polling
        (``SpaceClient.poll_events``) never parks in a blocking recv."""
        if self.closed:
            return True  # let recv_bytes surface the EOF
        try:
            readable, _, _ = select.select([self._sock], [], [], 0)
        except (OSError, ValueError):
            return True
        return bool(readable)

    def close(self) -> None:
        self.closed = True
        try:
            self._sock.close()
        except OSError:
            pass


def make_threaded_server(
    space, codec: Optional[XmlCodec] = None, host: str = "127.0.0.1", port: int = 0
) -> SocketSpaceServer:
    """Convenience: space + codec -> TCP space server (not started)."""
    codec = codec if codec is not None else XmlCodec()
    return SocketSpaceServer(SpaceServer(space, codec), host, port)
