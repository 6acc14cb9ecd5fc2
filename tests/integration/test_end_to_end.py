"""Cross-package integration: middleware over the simulated bus."""

import pytest

from repro.core import (
    LindaTuple,
    SimClock,
    SimSpaceClient,
    SpaceServer,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core.server import SimTimers
from repro.cosim import SimServerHost, build_bus_system
from repro.des import Simulator
from repro.hw import ClientBridge, ServerBridge
from repro.net import CBRSource
from repro.net.tpwire_agent import TpwireAgent, TpwireSink


def t(*fields):
    return LindaTuple(*fields)


def tpl(*patterns):
    return TupleTemplate(*patterns)


def build_world(bit_rate=4800.0, client_ids=(1,), server_id=3):
    sim = Simulator()
    system = build_bus_system(sim, list(client_ids) + [server_id], bit_rate=bit_rate)
    codec = XmlCodec()
    space = TupleSpace(clock=SimClock(sim))
    server = SpaceServer(space, codec, timers=SimTimers(sim))
    bridge = ServerBridge(sim, system.endpoint(server_id))
    SimServerHost(sim, server, bridge)
    clients = {}
    for node_id in client_ids:
        client_bridge = ClientBridge(sim, system.endpoint(node_id), server_id)
        clients[node_id] = SimSpaceClient(
            sim, client_bridge.to_bus, client_bridge.from_bus, codec,
            name=f"client{node_id}",
        )
    return sim, system, space, clients


class TestSingleClient:
    def test_write_take_through_the_whole_stack(self):
        sim, system, space, clients = build_world()
        system.start()
        results = {}

        def program():
            yield from clients[1].write(t("cmd", "open-valve"), lease=600.0)
            results["len"] = len(space)
            results["taken"] = yield from clients[1].take(
                tpl("cmd", str), timeout=120.0
            )

        sim.spawn(program())
        sim.run(until=600.0)
        assert results["len"] == 1
        assert results["taken"] == t("cmd", "open-valve")
        assert len(space) == 0
        # The operation really crossed the bus: thousands of frames.
        assert system.bus.tx_frames > 1000

    def test_notify_roundtrip_is_not_needed_for_take(self):
        sim, system, space, clients = build_world()
        system.start()
        results = {}

        def program():
            results["missing"] = yield from clients[1].take_if_exists(
                tpl("nothing")
            )

        sim.spawn(program())
        sim.run(until=300.0)
        assert results["missing"] is None


class TestTwoClients:
    def test_clients_communicate_through_the_space(self):
        """Producer on slave 1, consumer on slave 2, server on slave 3:
        the full anonymous-communication story of Sec. 2."""
        sim, system, space, clients = build_world(client_ids=(1, 2))
        system.start()
        results = {}

        def producer():
            yield from clients[1].write(
                t("measurement", 42), lease=600.0
            )

        def consumer():
            results["got"] = yield from clients[2].take(
                tpl("measurement", int), timeout=500.0
            )

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run(until=900.0)
        assert results["got"] == t("measurement", 42)


class TestMixedTraffic:
    def test_space_traffic_and_cbr_coexist(self):
        sim = Simulator()
        system = build_bus_system(sim, [1, 2, 3, 4], bit_rate=4800.0)
        codec = XmlCodec()
        space = TupleSpace(clock=SimClock(sim))
        server = SpaceServer(space, codec, timers=SimTimers(sim))
        SimServerHost(sim, server, ServerBridge(sim, system.endpoint(3)))
        client_bridge = ClientBridge(sim, system.endpoint(1), 3)
        client = SimSpaceClient(
            sim, client_bridge.to_bus, client_bridge.from_bus, codec
        )
        cbr_agent = TpwireAgent(sim, system.endpoint(2))
        sink = TpwireSink(sim, system.endpoint(4))
        cbr_agent.connect(sink)
        cbr = CBRSource(sim, cbr_agent, rate_bytes_per_s=1.0)
        system.start()
        cbr.start()
        results = {}

        def program():
            yield from client.write(t("x", 1), lease=900.0)
            results["taken"] = yield from client.take(tpl("x", int), timeout=300.0)
            results["at"] = sim.now
            cbr.stop()
            system.stop()
            sim.stop()

        sim.spawn(program())
        sim.run(until=900.0)
        assert results["taken"] == t("x", 1)
        assert sink.received_bytes > 0  # CBR flowed concurrently
