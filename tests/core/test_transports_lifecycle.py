"""Lifecycle of the TCP space server: connection churn, start-up
failure and shutdown.

``SocketSpaceServer`` runs the asyncio front end on one loop thread
(see docs/concurrency.md).  The server's record of connections must
stay bounded by the live ones, a failed ``start()`` must not leave its
loop thread behind, and ``stop()`` must wake clients parked in ``recv``
and join its thread instead of abandoning it.
"""

import socket
import threading
import time

import pytest

from repro.core import SpaceServer, TupleSpace, XmlCodec
from repro.core.transports import SocketSpaceServer


def make_server() -> SocketSpaceServer:
    return SocketSpaceServer(SpaceServer(TupleSpace(), XmlCodec()), port=0)


def wait_until(predicate, timeout=5.0, interval=0.01) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_open_connections_bounded_by_live_ones():
    tcp = make_server()
    tcp.start()
    front = tcp._front
    try:
        # Churn: each connection is accepted, closed and forgotten by
        # the server before the next one arrives.
        for accepted in range(1, 9):
            conn = socket.create_connection(tcp.address)
            conn.close()
            assert wait_until(lambda: front.connections_total == accepted)
            assert wait_until(lambda: front.connections_open == 0)
        last = socket.create_connection(tcp.address)
        try:
            assert wait_until(lambda: front.connections_total == 9)
            assert front.connections_open == 1
        finally:
            last.close()
    finally:
        tcp.stop()


def _loop_threads():
    return {t for t in threading.enumerate() if t.name == "space-server-loop"}


def test_failed_start_reaps_the_loop_thread_and_can_be_retried():
    before = _loop_threads()
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        tcp = SocketSpaceServer(
            SpaceServer(TupleSpace(), XmlCodec()), port=taken.getsockname()[1]
        )
        with pytest.raises(OSError):
            tcp.start()
    assert _loop_threads() == before
    assert tcp._thread is None and tcp._loop is None

    # The port is free again: a retried start() serves for real.
    tcp.start()
    try:
        assert tcp.address is not None
        socket.create_connection(tcp.address).close()
        assert _loop_threads() - before == {tcp._thread}
    finally:
        tcp.stop()
    assert _loop_threads() == before


def test_stop_wakes_parked_client_and_joins_loop_thread():
    tcp = make_server()
    tcp.start()
    conn = socket.create_connection(tcp.address)
    try:
        assert wait_until(lambda: tcp._front.connections_open == 1)
        received = []
        parked = threading.Thread(
            target=lambda: received.append(conn.recv(65536)), daemon=True
        )
        parked.start()
        loop_thread = tcp._thread

        start = time.monotonic()
        tcp.stop()
        parked.join(timeout=5.0)
        elapsed = time.monotonic() - start

        # The client was parked in recv(); stop() closed its connection
        # (EOF), then joined the loop thread.
        assert not parked.is_alive()
        assert received == [b""]
        assert loop_thread is not None and not loop_thread.is_alive()
        assert elapsed < 5.0
        assert tcp._front.connections_open == 0
    finally:
        conn.close()


def test_stop_is_idempotent():
    tcp = make_server()
    tcp.start()
    tcp.stop()
    tcp.stop()  # no loop left to stop, nothing to join: still fine
    assert tcp._thread is None
