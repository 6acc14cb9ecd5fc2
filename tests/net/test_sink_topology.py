"""Sink agents."""

import math

import pytest

from repro.des import Simulator
from repro.net import CBRSource, DuplexLink, NetAgent, Node, Packet, SinkAgent


@pytest.fixture
def sim():
    return Simulator()


class TestSink:
    def test_latency_recorded(self, sim):
        src, dst = Node(sim, "n0"), Node(sim, "n1")
        DuplexLink(sim, src, dst, bandwidth_bps=8000.0)
        sender = NetAgent(sim)
        sink = SinkAgent(sim)
        src.attach(sender)
        dst.attach(sink)
        sender.connect(dst)
        sender.send_payload(100)  # 0.1 s serialization
        sim.run()
        assert sink.received_packets == 1
        assert sink.latency.mean == pytest.approx(0.1)

    def test_goodput(self, sim):
        src, dst = Node(sim, "n0"), Node(sim, "n1")
        DuplexLink(sim, src, dst, bandwidth_bps=8000.0)
        sender = NetAgent(sim)
        sink = SinkAgent(sim)
        src.attach(sender)
        dst.attach(sink)
        sender.connect(dst)
        cbr = CBRSource(sim, sender, rate_bytes_per_s=100.0, packet_size=10)
        cbr.start()
        sim.run(until=20.0)
        assert sink.goodput_bytes_per_s == pytest.approx(100.0, rel=0.05)

    def test_goodput_nan_with_single_packet(self, sim):
        sink = SinkAgent(sim)
        sink.recv(Packet("x", 10, created_at=0.0))
        assert math.isnan(sink.goodput_bytes_per_s)

