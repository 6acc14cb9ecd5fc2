"""Client over the loopback and TCP socket transports."""

import asyncio
import threading
import time

import pytest

from repro.core import (
    Entry,
    LindaTuple,
    ManualClock,
    SpaceClient,
    SpaceServer,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core.aio import LoopTimers
from repro.core.errors import SpaceError
from repro.core.transports import (
    LocalConnection,
    SocketSpaceServer,
    open_socket_connection,
)


class Part(Entry):
    def __init__(self, serial=None, station=None, weight=None):
        self.serial = serial
        self.station = station
        self.weight = weight


def make_codec():
    codec = XmlCodec()
    codec.register(Part)
    return codec


@pytest.fixture
def local_client():
    codec = make_codec()
    space = TupleSpace(clock=ManualClock())
    server = SpaceServer(space, codec)
    client = SpaceClient(LocalConnection(server), codec)
    return client, space


class TestLocalConnection:
    def test_ping(self, local_client):
        client, _space = local_client
        assert client.ping()

    def test_write_take_roundtrip(self, local_client):
        client, space = local_client
        client.write(Part("sn-1", "drill", 2.5), lease=60)
        assert len(space) == 1
        got = client.take_if_exists(Part(serial="sn-1"))
        assert got == Part("sn-1", "drill", 2.5)
        assert len(space) == 0

    def test_read_does_not_consume(self, local_client):
        client, space = local_client
        client.write(Part("sn-2"))
        assert client.read_if_exists(Part()) is not None
        assert len(space) == 1

    def test_miss_returns_none(self, local_client):
        client, _space = local_client
        assert client.take_if_exists(Part(serial="ghost")) is None

    def test_tuples_through_wire(self, local_client):
        client, _space = local_client
        client.write(LindaTuple("job", 5))
        got = client.take_if_exists(TupleTemplate("job", int))
        assert got == LindaTuple("job", 5)

    def test_server_error_surfaces_as_exception(self, local_client):
        client, _space = local_client
        with pytest.raises(SpaceError):
            client.cancel_lease(9999)

    def test_lease_lifecycle(self, local_client):
        client, space = local_client
        ack = client.write(Part("sn-3"), lease=60)
        client.renew_lease(ack["lease_id"], 120)
        client.cancel_lease(ack["lease_id"])
        assert len(space) == 0

    def test_notify_events_dispatched(self, local_client):
        client, space = local_client
        events = []
        client.notify(Part(station="drill"), events.append)
        client.write(Part("sn-9", "drill"))
        client.poll_events()
        assert len(events) == 1
        assert events[0].item == Part("sn-9", "drill")

    def test_closed_connection_raises(self, local_client):
        client, _space = local_client
        client.connection.close()
        with pytest.raises(ConnectionError):
            client.ping()

    def test_rejects_a_server_whose_timers_fire_on_a_loop_thread(self):
        # LocalConnection is single-threaded: a LoopTimers timeout would
        # deliver into its buffer from the event loop's thread.
        loop = asyncio.new_event_loop()
        try:
            codec = make_codec()
            server = SpaceServer(
                TupleSpace(clock=ManualClock()), codec, timers=LoopTimers(loop)
            )
            with pytest.raises(TypeError, match="LoopTimers"):
                LocalConnection(server)
        finally:
            loop.close()


class TestSocketTransport:
    @pytest.fixture
    def server(self):
        codec = make_codec()
        space = TupleSpace()
        space_server = SpaceServer(space, codec)
        with SocketSpaceServer(space_server, port=0) as tcp:
            yield tcp, codec, space

    def test_roundtrip_over_tcp(self, server):
        tcp, codec, space = server
        conn = open_socket_connection(tcp.address)
        try:
            client = SpaceClient(conn, codec)
            assert client.ping()
            client.write(Part("sn-1", "press", 7.0), lease=60)
            got = client.take(Part(serial="sn-1"), timeout=5.0)
            assert got == Part("sn-1", "press", 7.0)
        finally:
            conn.close()

    def test_two_clients_share_the_space(self, server):
        tcp, codec, _space = server
        conn_a = open_socket_connection(tcp.address)
        conn_b = open_socket_connection(tcp.address)
        try:
            alice = SpaceClient(conn_a, codec)
            bob = SpaceClient(conn_b, codec)
            alice.write(Part("sn-x", "lathe"))
            got = bob.take_if_exists(Part(serial="sn-x"))
            assert got is not None
        finally:
            conn_a.close()
            conn_b.close()

    def test_blocking_take_released_by_other_client(self, server):
        tcp, codec, _space = server
        conn_a = open_socket_connection(tcp.address)
        conn_b = open_socket_connection(tcp.address)
        results = []
        try:
            alice = SpaceClient(conn_a, codec)
            bob = SpaceClient(conn_b, codec)

            def blocked_take():
                results.append(alice.take(Part(serial="sn-y"), timeout=10.0))

            thread = threading.Thread(target=blocked_take)
            thread.start()
            time.sleep(0.2)
            bob.write(Part("sn-y", "mill"))
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert results == [Part("sn-y", "mill")]
        finally:
            conn_a.close()
            conn_b.close()

    def test_blocking_take_times_out(self, server):
        tcp, codec, _space = server
        conn = open_socket_connection(tcp.address)
        try:
            client = SpaceClient(conn, codec)
            start = time.monotonic()
            assert client.take(Part(serial="never"), timeout=0.3) is None
            assert time.monotonic() - start >= 0.25
        finally:
            conn.close()
