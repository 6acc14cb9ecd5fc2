"""Deepest co-simulation path (Figure 5): firmware on the ISS performs a
space operation through the SC1 bridge, the TpWIRE bus, the SC2 bridge and
the SpaceServer — with the response parsed by the firmware itself."""

import struct

import pytest

from repro.board import TheseusBoard, firmware
from repro.core import (
    LindaTuple,
    Message,
    MessageType,
    SimClock,
    SpaceServer,
    StreamParser,
    TupleSpace,
    XmlCodec,
    encode_message,
)
from repro.core.server import SimTimers
from repro.cosim import SimServerHost, build_bus_system
from repro.des import Simulator
from repro.hw import ClientBridge, ServerBridge


@pytest.fixture(scope="module")
def completed_world():
    sim = Simulator()
    system = build_bus_system(sim, [1, 3], bit_rate=9600.0)
    codec = XmlCodec()
    space = TupleSpace(clock=SimClock(sim))
    server = SpaceServer(space, codec, timers=SimTimers(sim))
    SimServerHost(sim, server, ServerBridge(sim, system.endpoint(3)))
    bridge = ClientBridge(sim, system.endpoint(1), server_node_id=3)

    # The "compiled C++ client": a pre-marshalled WRITE request baked into
    # board memory; the firmware streams it out and parses the response
    # frame header to know how many reply bytes to collect.
    request = encode_message(
        Message(MessageType.WRITE, 77, {"lease": 9000},
                LindaTuple("from-board", 123)),
        codec,
    )
    blob, symbols = firmware.space_client_program(request, max_response=128)
    board = TheseusBoard(sim, instructions_per_second=200_000.0)
    board.connect_bridge(bridge)
    board.load_firmware(blob)

    system.start()
    board.start()
    sim.run(until=600.0)
    return sim, space, board, symbols, codec


class TestBoardDrivenSpaceOperation:
    def test_board_halts_after_full_roundtrip(self, completed_world):
        _sim, _space, board, _symbols, _codec = completed_world
        assert board.halted

    def test_entry_landed_in_the_space(self, completed_world):
        _sim, space, _board, _symbols, _codec = completed_world
        assert len(space) == 1

    def test_board_received_parseable_write_ack(self, completed_world):
        _sim, _space, board, symbols, codec = completed_world
        total = struct.unpack_from("<i", board.cpu.memory, symbols["total"])[0]
        raw = bytes(
            board.cpu.memory[symbols["response"] : symbols["response"] + total]
        )
        messages = StreamParser(codec).feed(raw)
        assert len(messages) == 1
        assert messages[0].msg_type is MessageType.WRITE_ACK
        assert messages[0].request_id == 77

    def test_operation_took_bus_time(self, completed_world):
        sim, _space, board, _symbols, _codec = completed_world
        # The request is ~100 bytes over a 9600 bps mediated bus: the
        # board must have spent simulated seconds, not microseconds.
        assert sim.now > 1.0
