"""Lifecycle of the TCP space server: connection churn and shutdown.

``SocketSpaceServer`` runs the asyncio front end on one loop thread.
These pin down what its thread-per-connection predecessor got wrong
(see docs/concurrency.md): the server's record of connections must stay
bounded by the live ones, and ``stop()`` must wake clients parked in
``recv`` and join its thread instead of abandoning it.
"""

import socket
import threading
import time

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
