"""The simulated server host behind the SC2 bridge."""

import pytest

from repro.core import (
    LindaTuple,
    MarshallingCost,
    SimClock,
    SpaceServer,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core.server import SimTimers
from repro.core.protocol import (
    HEADER,
    MAGIC,
    Message,
    MessageType,
    StreamParser,
    encode_message,
)
from repro.cosim import SimServerHost, build_bus_system
from repro.des import Simulator
from repro.hw import ServerBridge


def build(timing=MarshallingCost()):
    sim = Simulator()
    system = build_bus_system(sim, [1, 3])
    codec = XmlCodec()
    space = TupleSpace(clock=SimClock(sim))
    server = SpaceServer(space, codec, timers=SimTimers(sim))
    bridge = ServerBridge(sim, system.endpoint(3))
    host = SimServerHost(sim, server, bridge, timing)
    return sim, system, codec, space, host


class TestRequestPath:
    def test_request_over_bus_gets_response(self):
        sim, system, codec, space, host = build()
        system.start()
        wire = encode_message(
            Message(MessageType.WRITE, 1, {"lease": 600},
                    LindaTuple("a", 1)),
            codec,
        )
        replies = []
        parser = StreamParser(codec)
        system.endpoint(1).on_data = (
            lambda src, data, ctx: replies.extend(parser.feed(data))
        )
        system.endpoint(1).send(3, wire)
        sim.run(until=120.0)
        assert len(space) == 1
        assert replies and replies[0].msg_type is MessageType.WRITE_ACK

    def test_processing_time_charged(self):
        fast_world = build()
        slow_world = build(MarshallingCost(
            request_seconds_per_byte=0.05, reply_seconds_per_byte=0.05,
            request_overhead=1.0,
        ))

        def response_time(world):
            sim, system, codec, _space, _host = world
            system.start()
            done = []
            system.endpoint(1).on_data = lambda s, d, c: done.append(sim.now)
            wire = encode_message(Message(MessageType.PING, 1), codec)
            system.endpoint(1).send(3, wire)
            sim.run(until=300.0)
            return done[0]

        assert response_time(slow_world) > response_time(fast_world) + 1.0

    def test_per_client_sessions(self):
        sim, system, codec, space, host = build()
        # add another client endpoint on the same bus
        sim2 = sim  # same world; add node 2 is not possible post-build, so
        # exercise sessions via two requests from the same node instead.
        system.start()
        replies = []
        parser = StreamParser(codec)
        system.endpoint(1).on_data = (
            lambda src, data, ctx: replies.extend(parser.feed(data))
        )
        for rid in (1, 2):
            system.endpoint(1).send(
                3, encode_message(Message(MessageType.PING, rid), codec)
            )
        sim.run(until=120.0)
        assert [r.request_id for r in replies] == [1, 2]
        assert host.requests_dispatched == 2

    def test_byte_counters(self):
        sim, system, codec, _space, host = build()
        system.start()
        wire = encode_message(Message(MessageType.PING, 1), codec)
        system.endpoint(1).send(3, wire)
        sim.run(until=60.0)
        assert host.bytes_received == len(wire)
        assert host.bytes_sent == len(wire)  # PONG is also header-only


class _RecordingBridge:
    """ServerBridge stand-in: records what the host sends to each node."""

    def __init__(self):
        self.deliver = None
        self.sent = {}

    def send_to(self, node_id, data):
        self.sent.setdefault(node_id, bytearray()).extend(data)
        return True


class TestMalformedFrame:
    def test_error_then_close_keeps_the_simulation_alive(self):
        sim = Simulator()
        codec = XmlCodec()
        space = TupleSpace(clock=SimClock(sim))
        server = SpaceServer(space, codec, timers=SimTimers(sim))
        bridge = _RecordingBridge()
        host = SimServerHost(sim, server, bridge)
        body = b"<definitely-not-xml"
        host._on_bus_bytes(
            1, HEADER.pack(MAGIC, int(MessageType.WRITE), 77, len(body)) + body
        )
        host._on_bus_bytes(2, encode_message(Message(MessageType.PING, 5), codec))
        # Before the fix the ProtocolError escaped the dispatch process
        # and killed the whole run.
        sim.run(until=10.0)

        def replies(node):
            return StreamParser(codec).feed(bytes(bridge.sent[node]))

        (error,) = replies(1)
        assert error.msg_type is MessageType.ERROR
        assert error.request_id == 77
        assert [(r.msg_type, r.request_id) for r in replies(2)] == [
            (MessageType.PONG, 5)
        ]
        # The broken connection was dropped: node 1's next bytes open a
        # fresh one and are served.
        host._on_bus_bytes(1, encode_message(Message(MessageType.PING, 1), codec))
        sim.run(until=20.0)
        assert [r.msg_type for r in replies(1)] == [
            MessageType.ERROR, MessageType.PONG
        ]
