"""Byte transport: link messages, mailboxes, master relay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Simulator
from repro.tpwire import (
    BusTiming,
    Flag,
    MailboxDevice,
    MasterPoller,
    TpwireBus,
    TpwireMaster,
    TpwireSlave,
    TransportEndpoint,
)
from repro.tpwire.errors import TpwireError
from repro.tpwire.transport import (
    DEFAULT_MAX_PAYLOAD,
    MESSAGE_OVERHEAD,
    LinkMessage,
    TransportFabric,
    crc16_ccitt,
)


class TestCrc16:
    def test_known_vector(self):
        # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert crc16_ccitt(b"123456789") == 0x29B1

    def test_empty_is_initial(self):
        assert crc16_ccitt(b"") == 0xFFFF

    @given(st.binary(min_size=1, max_size=64), st.integers(0, 7))
    def test_detects_single_bit_flips(self, data, bit):
        corrupted = bytearray(data)
        corrupted[0] ^= 1 << bit
        assert crc16_ccitt(bytes(corrupted)) != crc16_ccitt(data)


class TestLinkMessage:
    def test_roundtrip(self):
        message = LinkMessage(3, 1, 7, 1, b"hello")
        assert LinkMessage.decode(message.encode()).payload == b"hello"

    def test_wire_size(self):
        message = LinkMessage(3, 1, 7, 0, b"abc")
        assert message.wire_size == 3 + MESSAGE_OVERHEAD
        assert len(message.encode()) == message.wire_size

    def test_crc_protects_payload(self):
        wire = bytearray(LinkMessage(3, 1, 7, 0, b"abc").encode())
        wire[6] ^= 0xFF
        with pytest.raises(TpwireError):
            LinkMessage.decode(bytes(wire))

    def test_length_mismatch_rejected(self):
        wire = LinkMessage(3, 1, 7, 0, b"abc").encode()
        with pytest.raises(TpwireError):
            LinkMessage.decode(wire + b"\x00")

    def test_last_chunk_flag(self):
        assert LinkMessage(1, 2, 3, 1, b"x").is_last_chunk
        assert not LinkMessage(1, 2, 3, 0, b"x").is_last_chunk

    def test_field_validation(self):
        with pytest.raises(TpwireError):
            LinkMessage(300, 1, 0, 0, b"")
        with pytest.raises(TpwireError):
            LinkMessage(1, 1, 0, 0, b"x" * 300)

    @given(
        st.integers(0, 255), st.integers(0, 255), st.integers(0, 255),
        st.integers(0, 255), st.binary(min_size=0, max_size=255),
    )
    def test_roundtrip_property(self, dest, src, seq, flags, payload):
        message = LinkMessage(dest, src, seq, flags, payload)
        decoded = LinkMessage.decode(message.encode())
        assert (decoded.dest, decoded.src, decoded.seq, decoded.flags,
                decoded.payload) == (dest, src, seq, flags, payload)


class TestMailbox:
    def make(self):
        sim = Simulator()
        timing = BusTiming()
        slave = TpwireSlave(sim, 1, timing)
        mailbox = MailboxDevice()
        slave.attach_device(mailbox)
        return slave, mailbox

    def test_enqueue_sets_flags_and_interrupt(self):
        slave, mailbox = self.make()
        mailbox.enqueue_message(LinkMessage(2, 1, 1, 1, b"x"))
        assert slave.registers.test_flag(Flag.OUT_READY)
        assert slave.interrupt_pending

    def test_draining_outbox_clears_flags(self):
        slave, mailbox = self.make()
        mailbox.enqueue_message(LinkMessage(2, 1, 1, 1, b"x"))
        regs = slave.registers
        total = mailbox.outbound_bytes
        regs.set_pointer(MailboxDevice.OUT_DATA)
        for _ in range(total):
            regs.read_at_pointer()
        assert not slave.registers.test_flag(Flag.OUT_READY)
        assert not slave.interrupt_pending

    def test_out_count_register(self):
        slave, mailbox = self.make()
        mailbox.enqueue_message(LinkMessage(2, 1, 1, 1, b"abc"))
        regs = slave.registers
        assert regs.read_memory(MailboxDevice.OUT_COUNT) == 3 + MESSAGE_OVERHEAD

    def test_outbox_capacity(self):
        slave, mailbox = self.make()
        mailbox.out_capacity = 10
        assert not mailbox.enqueue_message(LinkMessage(2, 1, 1, 1, b"x" * 10))
        assert mailbox.rejected_sends == 1

    def test_inbound_reassembly_delivers_messages(self):
        slave, mailbox = self.make()
        delivered = []
        mailbox.on_message = delivered.append
        wire = LinkMessage(1, 2, 5, 1, b"payload").encode()
        regs = slave.registers
        for byte in wire:
            regs.write_memory(MailboxDevice.IN_DATA, byte)
        assert len(delivered) == 1
        assert delivered[0].payload == b"payload"

    def test_corrupt_inbound_dropped(self):
        slave, mailbox = self.make()
        delivered = []
        mailbox.on_message = delivered.append
        wire = bytearray(LinkMessage(1, 2, 5, 1, b"payload").encode())
        wire[-1] ^= 0xFF  # break the CRC
        for byte in wire:
            slave.registers.write_memory(MailboxDevice.IN_DATA, byte)
        assert delivered == []
        assert mailbox.corrupt_inbound == 1

    def test_outbound_underrun_raises(self):
        slave, mailbox = self.make()
        with pytest.raises(TpwireError):
            slave.registers.read_memory(MailboxDevice.OUT_DATA)

    def test_out_last_repeats_popped_byte(self):
        slave, mailbox = self.make()
        mailbox.enqueue_message(LinkMessage(2, 1, 1, 1, b"z"))
        regs = slave.registers
        first = regs.read_memory(MailboxDevice.OUT_DATA)
        # The repeat register returns the same byte, repeatedly, without
        # disturbing the FIFO.
        assert regs.read_memory(MailboxDevice.OUT_LAST) == first
        assert regs.read_memory(MailboxDevice.OUT_LAST) == first
        second = regs.read_memory(MailboxDevice.OUT_DATA)
        assert regs.read_memory(MailboxDevice.OUT_LAST) == second


def build_network(sim, node_ids=(1, 2, 3), **poller_kwargs):
    timing = BusTiming(bit_rate=2400)
    bus = TpwireBus(sim, timing)
    master = TpwireMaster(sim, bus)
    fabric = TransportFabric()
    endpoints = {}
    for node_id in node_ids:
        slave = TpwireSlave(sim, node_id, timing)
        mailbox = MailboxDevice()
        slave.attach_device(mailbox)
        bus.attach_slave(slave)
        endpoints[node_id] = TransportEndpoint(sim, fabric, mailbox, node_id)
    poller = MasterPoller(sim, master, fabric, list(node_ids), **poller_kwargs)
    return bus, master, fabric, endpoints, poller


class TestEndpointSegmentation:
    def test_wire_size_of(self):
        sim = Simulator()
        _bus, _master, _fabric, endpoints, _poller = build_network(sim)
        endpoint = endpoints[1]
        assert endpoint.wire_size_of(10) == 10 + MESSAGE_OVERHEAD
        assert endpoint.wire_size_of(64) == 64 + 2 * MESSAGE_OVERHEAD
        assert endpoint.wire_size_of(65) == 65 + 3 * MESSAGE_OVERHEAD

    def test_empty_send_rejected(self):
        sim = Simulator()
        _bus, _master, _fabric, endpoints, _poller = build_network(sim)
        with pytest.raises(TpwireError):
            endpoints[1].send(2, b"")

    def test_rejected_send_queues_nothing(self):
        sim = Simulator()
        _bus, _master, _fabric, endpoints, poller = build_network(sim)
        sender = endpoints[1]
        sender.mailbox.out_capacity = 100
        received = []
        endpoints[2].on_data = lambda src, data, ctx: received.append(data)
        # 80 bytes are three chunks and 101 wire bytes: the first two
        # chunks fit, the third does not.
        assert not sender.send(2, b"A" * 80)
        assert sender.mailbox.outbound_bytes == 0
        assert sender.mailbox.rejected_sends == 1
        assert sender.send(2, b"hello")
        poller.start()
        sim.run(until=30.0)
        assert received == [b"hello"]

    def test_duplicate_endpoint_rejected(self):
        sim = Simulator()
        _bus, _master, fabric, endpoints, _poller = build_network(sim)
        mailbox = MailboxDevice()
        with pytest.raises(TpwireError):
            TransportEndpoint(sim, fabric, mailbox, 1)


class TestEndToEndRelay:
    def test_single_message(self):
        sim = Simulator()
        _bus, _master, _fabric, endpoints, poller = build_network(sim)
        received = []
        endpoints[2].on_data = lambda src, data, ctx: received.append((src, data))
        poller.start()
        endpoints[1].send(2, b"hello world")
        sim.run(until=30.0)
        assert received == [(1, b"hello world")]

    def test_large_payload_reassembled(self):
        sim = Simulator()
        _bus, _master, _fabric, endpoints, poller = build_network(sim)
        received = []
        endpoints[3].on_data = lambda src, data, ctx: received.append(data)
        poller.start()
        payload = bytes(range(256)) * 2  # 512 bytes -> 16 chunks
        endpoints[1].send(3, payload)
        sim.run(until=120.0)
        assert received == [payload]

    def test_context_object_delivered(self):
        sim = Simulator()
        _bus, _master, _fabric, endpoints, poller = build_network(sim)
        contexts = []
        endpoints[2].on_data = lambda src, data, ctx: contexts.append(ctx)
        poller.start()
        marker = object()
        endpoints[1].send(2, b"x" * 100, context=marker)
        sim.run(until=60.0)
        assert contexts == [marker]

    def test_bidirectional_traffic(self):
        sim = Simulator()
        _bus, _master, _fabric, endpoints, poller = build_network(sim)
        inbox = {1: [], 2: []}
        endpoints[1].on_data = lambda src, data, ctx: inbox[1].append(data)
        endpoints[2].on_data = lambda src, data, ctx: inbox[2].append(data)
        poller.start()
        endpoints[1].send(2, b"ping")
        endpoints[2].send(1, b"pong")
        sim.run(until=30.0)
        assert inbox[2] == [b"ping"]
        assert inbox[1] == [b"pong"]

    def test_unknown_destination_dropped(self):
        sim = Simulator()
        _bus, _master, _fabric, endpoints, poller = build_network(sim)
        poller.start()
        endpoints[1].send(77, b"void")
        sim.run(until=30.0)
        assert poller.dropped_messages == 1

    def test_interleaved_sources_no_crosstalk(self):
        sim = Simulator()
        _bus, _master, _fabric, endpoints, poller = build_network(sim)
        received = []
        endpoints[3].on_data = lambda src, data, ctx: received.append((src, data))
        poller.start()
        endpoints[1].send(3, b"a" * 100)
        endpoints[2].send(3, b"b" * 100)
        sim.run(until=120.0)
        assert sorted(received) == [(1, b"a" * 100), (2, b"b" * 100)]

    def test_poller_stop(self):
        sim = Simulator()
        _bus, _master, _fabric, endpoints, poller = build_network(sim)
        poller.start()
        sim.run(until=1.0)
        poller.stop()
        frames_at_stop_plus_margin = None
        endpoints[1].send(2, b"late")
        sim.run(until=20.0)
        received = []
        endpoints[2].on_data = lambda src, data, ctx: received.append(data)
        sim.run(until=40.0)
        assert received == []  # nothing relayed after stop

    def test_poller_requires_slaves(self):
        sim = Simulator()
        bus, master, fabric, _endpoints, _poller = build_network(sim)
        with pytest.raises(TpwireError):
            MasterPoller(sim, master, fabric, [])
