"""Nodes and links: delivery, serialisation, queueing, drops."""

import pytest

from repro.des import Simulator
from repro.net import DuplexLink, NetAgent, Node, Packet
from repro.net.link import Link


class Recorder(NetAgent):
    def __init__(self, sim, name="recorder"):
        super().__init__(sim, name)
        self.received = []

    def recv(self, packet):
        self.received.append((self.sim.now, packet))


@pytest.fixture
def sim():
    return Simulator()


def wire(sim, bandwidth=8000.0, delay=0.0, queue_limit=None):
    a, b = Node(sim, "a"), Node(sim, "b")
    link = Link(sim, a, b, bandwidth, delay, queue_limit)
    receiver = Recorder(sim)
    b.attach(receiver)
    return a, b, link, receiver


class TestLinkTiming:
    def test_serialization_delay(self, sim):
        a, b, link, receiver = wire(sim, bandwidth=8000.0)
        link.send(Packet("data", 100, src="a", dst="b"))  # 800 bits / 8000 bps
        sim.run()
        assert receiver.received[0][0] == pytest.approx(0.1)

    def test_propagation_delay_added(self, sim):
        a, b, link, receiver = wire(sim, bandwidth=8000.0, delay=0.5)
        link.send(Packet("data", 100, src="a", dst="b"))
        sim.run()
        assert receiver.received[0][0] == pytest.approx(0.6)

    def test_back_to_back_packets_serialize(self, sim):
        a, b, link, receiver = wire(sim, bandwidth=8000.0)
        for _ in range(3):
            link.send(Packet("data", 100, src="a", dst="b"))
        sim.run()
        times = [t for t, _ in receiver.received]
        assert times == pytest.approx([0.1, 0.2, 0.3])

    def test_hop_count_increments(self, sim):
        a, b, link, receiver = wire(sim)
        link.send(Packet("data", 10, src="a", dst="b"))
        sim.run()
        assert receiver.received[0][1].hops == 1

    def test_serialization_time_helper(self, sim):
        _a, _b, link, _receiver = wire(sim, bandwidth=1000.0)
        assert link.serialization_time(125) == pytest.approx(1.0)


class TestQueueing:
    def test_drop_tail_beyond_limit(self, sim):
        a, b, link, receiver = wire(sim, bandwidth=80.0, queue_limit=2)
        accepted = [link.send(Packet("data", 10, src="a", dst="b")) for _ in range(5)]
        # First starts transmitting immediately, two queue, rest drop.
        assert accepted == [True, True, True, False, False]
        assert link.drops == 2
        sim.run()
        assert len(receiver.received) == 3

    def test_queue_length_visible(self, sim):
        a, b, link, _ = wire(sim, bandwidth=80.0)
        for _ in range(3):
            link.send(Packet("data", 10, src="a", dst="b"))
        assert link.busy
        assert link.queue_length == 2

    def test_throughput_monitor_counts_bytes(self, sim):
        a, b, link, _ = wire(sim)
        link.send(Packet("data", 100, src="a", dst="b"))
        sim.run()
        assert link.throughput.total_amount == 100


class TestValidation:
    def test_bad_bandwidth(self, sim):
        a, b = Node(sim, "a"), Node(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, 0.0)

    def test_bad_delay(self, sim):
        a, b = Node(sim, "a"), Node(sim, "b")
        with pytest.raises(ValueError):
            Link(sim, a, b, 100.0, delay=-1.0)


class TestNode:
    def test_port_dispatch(self, sim):
        a, b, link, receiver0 = wire(sim)
        receiver5 = Recorder(sim, "r5")
        b.attach(receiver5, port=5)
        link.send(Packet("data", 10, src="a", dst="b", port=5))
        link.send(Packet("data", 10, src="a", dst="b"))
        sim.run()
        assert len(receiver5.received) == 1
        assert len(receiver0.received) == 1

    def test_duplicate_port_rejected(self, sim):
        node = Node(sim, "n")
        node.attach(Recorder(sim))
        with pytest.raises(ValueError):
            node.attach(Recorder(sim))

    def test_detach(self, sim):
        node = Node(sim, "n")
        agent = Recorder(sim)
        node.attach(agent)
        node.detach(0)
        assert node.agent_on(0) is None
        assert agent.node is None

    def test_link_to(self, sim):
        a, b, link, _ = wire(sim)
        assert a.link_to(b) is link
        assert b.link_to(a) is None  # simplex


class TestDuplexLink:
    def test_both_directions(self, sim):
        a, b = Node(sim, "a"), Node(sim, "b")
        duplex = DuplexLink(sim, a, b, 8000.0)
        ra, rb = Recorder(sim, "ra"), Recorder(sim, "rb")
        a.attach(ra)
        b.attach(rb)
        duplex.direction(a).send(Packet("data", 10, src="a", dst="b"))
        duplex.direction(b).send(Packet("data", 10, src="b", dst="a"))
        sim.run()
        assert len(ra.received) == 1 and len(rb.received) == 1

    def test_direction_for_stranger_rejected(self, sim):
        a, b, c = Node(sim, "a"), Node(sim, "b"), Node(sim, "c")
        duplex = DuplexLink(sim, a, b, 1000.0)
        with pytest.raises(ValueError):
            duplex.direction(c)


class TestAgentPlumbing:
    def test_send_payload_builds_packet(self, sim):
        a, b, link, receiver = wire(sim)
        sender = NetAgent(sim, "sender")
        a.attach(sender)
        sender.connect(b)
        packet = sender.send_payload(42, payload="data")
        assert packet.size == 42 and packet.dst == "b"
        sim.run()
        assert receiver.received[0][1].payload == "data"

    def test_unattached_agent_raises(self, sim):
        agent = NetAgent(sim)
        with pytest.raises(RuntimeError):
            agent.send_payload(1)

    def test_unconnected_agent_raises(self, sim):
        node = Node(sim, "n")
        agent = NetAgent(sim)
        node.attach(agent)
        with pytest.raises(RuntimeError):
            agent.send_payload(1)

    def test_no_link_raises(self, sim):
        a, b = Node(sim, "a"), Node(sim, "b")
        agent = NetAgent(sim)
        a.attach(agent)
        agent.connect(b)
        with pytest.raises(RuntimeError):
            agent.send_payload(1)
