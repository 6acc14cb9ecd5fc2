"""gdb remote-serial-protocol stub."""

import struct

import pytest

from repro.board import GdbClient, GdbStub, StackCpu, firmware
from repro.board.gdb_stub import PacketReader, RspError, rsp_decode, rsp_encode


class TestFraming:
    def test_encode(self):
        assert rsp_encode(b"OK") == b"$OK#9a"

    def test_roundtrip(self):
        payload = b"m100,20"
        assert rsp_decode(rsp_encode(payload)) == payload

    def test_checksum_verified(self):
        with pytest.raises(RspError, match="checksum"):
            rsp_decode(b"$OK#00")

    def test_missing_dollar(self):
        with pytest.raises(RspError):
            rsp_decode(b"OK#9a")

    def test_missing_hash(self):
        with pytest.raises(RspError):
            rsp_decode(b"$OK")


class TestPacketReader:
    def test_splits_packets_and_acks(self):
        reader = PacketReader()
        stream = b"+" + rsp_encode(b"s") + b"-" + rsp_encode(b"c")
        items = reader.feed(stream)
        assert items == [b"+", rsp_encode(b"s"), b"-", rsp_encode(b"c")]

    def test_partial_packet_buffers(self):
        reader = PacketReader()
        packet = rsp_encode(b"m0,10")
        assert reader.feed(packet[:4]) == []
        assert reader.feed(packet[4:]) == [packet]

    def test_noise_resynchronised(self):
        reader = PacketReader()
        items = reader.feed(b"garbage" + rsp_encode(b"?"))
        assert items == [rsp_encode(b"?")]


def make_stub_with_checksum_program():
    data = bytes([5, 10, 20])
    blob, symbols = firmware.checksum_program(data)
    cpu = StackCpu()
    cpu.load(blob)
    return GdbStub(cpu), symbols, sum(data)


class TestCommands:
    def test_halt_reason(self):
        stub, _, _ = make_stub_with_checksum_program()
        assert stub.handle_packet(b"?") == b"S05"

    def test_continue_runs_to_halt(self):
        stub, symbols, expected = make_stub_with_checksum_program()
        assert stub.handle_packet(b"c") == b"W00"
        client = GdbClient(stub)
        memory = client.read_memory(symbols["result"], 4)
        assert struct.unpack("<i", memory)[0] == expected

    def test_single_step(self):
        stub, _, _ = make_stub_with_checksum_program()
        assert stub.handle_packet(b"s") == b"S05"
        assert stub.cpu.cycles == 1

    def test_memory_write_via_client(self):
        stub, _, _ = make_stub_with_checksum_program()
        client = GdbClient(stub)
        client.write_memory(0x300, b"\x01\x02\x03")
        assert client.read_memory(0x300, 3) == b"\x01\x02\x03"

    def test_register_read(self):
        stub, _, _ = make_stub_with_checksum_program()
        client = GdbClient(stub)
        client.step()
        registers = client.read_registers()
        assert registers["cycles"] == 1
        assert registers["pc"] == 5

    def test_memory_errors(self):
        stub, _, _ = make_stub_with_checksum_program()
        assert stub.handle_packet(b"m100000,4") == b"E02"
        assert stub.handle_packet(b"mzz,4") == b"E01"
        assert stub.handle_packet(b"M0,2:aa") == b"E03"

    def test_qsupported(self):
        stub, _, _ = make_stub_with_checksum_program()
        assert b"PacketSize" in stub.handle_packet(b"qSupported:foo")

    def test_unsupported_command_empty_reply(self):
        stub, _, _ = make_stub_with_checksum_program()
        assert stub.handle_packet(b"Z0,0,0") == b""


class TestFeedInterface:
    def test_feed_acks_and_replies(self):
        stub, _, _ = make_stub_with_checksum_program()
        out = stub.feed(rsp_encode(b"?"))
        assert out.startswith(b"+")
        assert rsp_decode(out[1:]) == b"S05"

    def test_feed_nacks_bad_checksum(self):
        stub, _, _ = make_stub_with_checksum_program()
        assert stub.feed(b"$?#00") == b"-"
