"""Slave protocol state machine."""

import pytest

from repro.des import Simulator
from repro.tpwire import (
    AddressSpace,
    BusTiming,
    Command,
    Flag,
    RxType,
    TpwireSlave,
    TxFrame,
    node_address,
)
from repro.tpwire.commands import BROADCAST_NODE_ID, split_status_byte
from repro.tpwire.errors import TpwireError


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def timing():
    return BusTiming(bit_rate=2400)


@pytest.fixture
def slave(sim, timing):
    return TpwireSlave(sim, 5, timing)


def select(slave, space=AddressSpace.MEMORY, node_id=None, at=0.0):
    target = slave.node_id if node_id is None else node_id
    return slave.receive_tx(
        TxFrame(Command.SELECT, node_address(target, space)), at
    )


class TestSelection:
    def test_select_own_address_acks(self, slave):
        reply = select(slave)
        assert reply is not None and reply.rtype is RxType.ACK
        node_id, _int = split_status_byte(reply.data)
        assert node_id == 5
        assert slave.selected_space is AddressSpace.MEMORY

    def test_select_other_node_deselects(self, slave):
        select(slave)
        reply = select(slave, node_id=9)
        assert reply is None
        assert slave.selected_space is None

    def test_unselected_slave_ignores_commands(self, slave):
        assert slave.receive_tx(TxFrame(Command.POLL, 0), 0.0) is None

    def test_select_system_space(self, slave):
        select(slave, AddressSpace.SYSTEM)
        assert slave.selected_space is AddressSpace.SYSTEM

    def test_invalid_node_id_rejected(self, sim, timing):
        with pytest.raises(TpwireError):
            TpwireSlave(sim, BROADCAST_NODE_ID, timing)


class TestMemoryCommands:
    def test_write_then_read_byte(self, slave):
        select(slave)
        slave.receive_tx(TxFrame(Command.WRITE_ADDR, 0x20), 0.0)
        slave.receive_tx(TxFrame(Command.WRITE_DATA, 0xAB), 0.0)
        slave.receive_tx(TxFrame(Command.WRITE_ADDR, 0x20), 0.0)
        reply = slave.receive_tx(TxFrame(Command.READ_DATA, 0), 0.0)
        assert reply.rtype is RxType.DATA
        assert reply.data == 0xAB

    def test_sequential_reads_auto_increment(self, slave):
        slave.registers.memory[0:3] = b"\x0a\x0b\x0c"
        select(slave)
        slave.receive_tx(TxFrame(Command.WRITE_ADDR, 0), 0.0)
        data = [
            slave.receive_tx(TxFrame(Command.READ_DATA, 0), 0.0).data
            for _ in range(3)
        ]
        assert data == [0x0A, 0x0B, 0x0C]

    def test_system_space_write_read(self, slave):
        select(slave, AddressSpace.SYSTEM)
        slave.receive_tx(TxFrame(Command.WRITE_ADDR, 3), 0.0)  # SPI register
        slave.receive_tx(TxFrame(Command.WRITE_DATA, 0x77), 0.0)
        slave.receive_tx(TxFrame(Command.WRITE_ADDR, 3), 0.0)
        reply = slave.receive_tx(TxFrame(Command.READ_DATA, 0), 0.0)
        assert reply.data == 0x77

    def test_memory_fault_returns_error_frame(self, sim, timing):
        small = TpwireSlave(sim, 1, timing, memory_size=8)
        select(small)
        small.receive_tx(TxFrame(Command.WRITE_ADDR, 0x50), 0.0)
        reply = small.receive_tx(TxFrame(Command.READ_DATA, 0), 0.0)
        assert reply.rtype is RxType.ERROR
        assert small.registers.test_flag(Flag.ERROR)


class TestFlagsAndPoll:
    def test_read_flags(self, slave):
        slave.registers.set_flag(Flag.OUT_READY)
        select(slave)
        reply = slave.receive_tx(TxFrame(Command.READ_FLAGS, 0), 0.0)
        assert reply.rtype is RxType.FLAGS
        assert Flag(reply.data) & Flag.OUT_READY

    def test_read_flags_clears_reset_occurred(self, slave):
        slave.registers.set_flag(Flag.RESET_OCCURRED)
        select(slave)
        slave.receive_tx(TxFrame(Command.READ_FLAGS, 0), 0.0)
        assert not slave.registers.test_flag(Flag.RESET_OCCURRED)

    def test_poll_reports_node_and_interrupt(self, slave):
        slave.raise_interrupt()
        select(slave)
        reply = slave.receive_tx(TxFrame(Command.POLL, 0), 0.0)
        node_id, int_pending = split_status_byte(reply.data)
        assert node_id == 5 and int_pending
        assert reply.int_pending

    def test_interrupt_flag_lifecycle(self, slave):
        assert not slave.interrupt_pending
        slave.raise_interrupt()
        assert slave.interrupt_pending
        slave.clear_interrupt()
        assert not slave.interrupt_pending


class TestBroadcast:
    def test_broadcast_select_no_reply(self, slave):
        reply = select(slave, node_id=BROADCAST_NODE_ID)
        assert reply is None
        assert slave.selected_space is AddressSpace.MEMORY
        assert slave.broadcast_selected

    def test_broadcast_command_executes_silently(self, slave):
        select(slave, node_id=BROADCAST_NODE_ID)
        reply = slave.receive_tx(TxFrame(Command.WRITE_ADDR, 0x10), 0.0)
        assert reply is None
        assert slave.registers.pointer == 0x10

    def test_individual_select_clears_broadcast_mode(self, slave):
        select(slave, node_id=BROADCAST_NODE_ID)
        select(slave)
        assert not slave.broadcast_selected


class TestResetWatchdog:
    def test_resets_after_silence(self, slave, timing):
        select(slave)
        slave.receive_tx(TxFrame(Command.WRITE_ADDR, 9), 0.0)
        quiet = timing.reset_timeout + timing.reset_active + 0.01
        # The reset dropped the selection, so the POLL goes unanswered.
        assert slave.receive_tx(TxFrame(Command.POLL, 0), quiet) is None
        assert slave.resets == 1
        assert slave.selected_space is None
        assert slave.registers.pointer == 0
        assert select(slave, at=quiet) is not None  # pulse already over

    def test_unresponsive_during_reset_pulse(self, slave, timing):
        select(slave)
        during_pulse = timing.reset_timeout + timing.reset_active / 2
        assert select(slave, at=during_pulse) is None
        assert slave.resets == 1
        after_pulse = timing.reset_timeout + timing.reset_active
        assert select(slave, at=after_pulse) is not None

    def test_steady_traffic_prevents_reset(self, slave, timing):
        interval = timing.reset_timeout / 2
        t = 0.0
        for _ in range(10):
            slave.receive_tx(TxFrame(Command.POLL, 0), t)
            t += interval
        assert slave.resets == 0

    def test_reset_command_resets_immediately(self, slave, timing):
        select(slave)
        reply = slave.receive_tx(TxFrame(Command.RESET, 0), 0.5)
        assert reply is None
        assert slave.resets == 1
        assert slave.selected_space is None
        # The pulse starts when the RESET frame arrives.
        assert select(slave, at=0.5 + timing.reset_active / 2) is None
        assert select(slave, at=0.5 + timing.reset_active) is not None

    def test_watchdog_rearms_after_reset(self, slave, timing):
        # Each gap outlasts two watchdog periods (reset_timeout +
        # reset_active each), so each costs two resets.
        quiet = timing.reset_timeout + timing.reset_active + 1.0
        slave.receive_tx(TxFrame(Command.POLL, 0), quiet)
        assert slave.resets == 2
        much_later = quiet + timing.reset_timeout + timing.reset_active + 1.0
        slave.receive_tx(TxFrame(Command.POLL, 0), much_later)
        assert slave.resets == 4
