"""Bit-level TpWIRE PHY: protocol correctness and timing fidelity."""

import pytest

from repro.des import Simulator
from repro.des.process import Waitable
from repro.hw import BitLevelTpwireBus, HwKernel, HwModule, PhyTiming, Signal
from repro.hw.signal import wait_negedge, wait_time, wait_until
from repro.hw.tpwire_phy import IDLE, MasterPhy, SlavePhy
from repro.tpwire import (
    BusTiming,
    Command,
    RxFrame,
    RxType,
    TpwireMaster,
    TpwireSlave,
    TxFrame,
    node_address,
)
from repro.tpwire.bus import CycleStatus, TpwireBus
from repro.tpwire.commands import BROADCAST_NODE_ID
from repro.tpwire.errors import TpwireError


def build(n_slaves=2, bit_rate=2400.0, seed=1, fw_jitter=0.0):
    sim = Simulator(seed=seed)
    kernel = HwKernel(sim)
    phy = PhyTiming(bit_rate=bit_rate, fw_jitter_bits=fw_jitter)
    bus = BitLevelTpwireBus(sim, kernel, phy)
    timing = BusTiming(bit_rate=bit_rate)
    slaves = {}
    for node_id in range(1, n_slaves + 1):
        slave = TpwireSlave(sim, node_id, timing)
        bus.attach_slave(slave)
        slaves[node_id] = slave
    bus.finalize()
    return sim, bus, slaves


def run_cycle(sim, bus, frame):
    results = []
    bus.execute(frame).add_callback(lambda w: results.append(w.value))
    sim.run()
    return results[0]


class TestBitLevelCycles:
    def test_select_and_ack(self):
        sim, bus, slaves = build()
        result = run_cycle(sim, bus, TxFrame(Command.SELECT, node_address(1)))
        assert result.status is CycleStatus.OK
        assert result.rx.rtype is RxType.ACK
        assert slaves[1].selected_space is not None

    def test_deep_slave_reachable(self):
        sim, bus, slaves = build(n_slaves=4)
        result = run_cycle(sim, bus, TxFrame(Command.SELECT, node_address(4)))
        assert result.status is CycleStatus.OK
        assert slaves[4].selected_space is not None

    def test_write_read_through_bits(self):
        sim, bus, _slaves = build()
        master = TpwireMaster(sim, bus)
        master.run_op(master.op_write_bytes(1, 0x08, b"\xc3\x5a"))
        sim.run()
        process = master.run_op(master.op_read_bytes(1, 0x08, 2))
        sim.run()
        assert process.value == b"\xc3\x5a"

    def test_missing_node_times_out(self):
        sim, bus, _slaves = build()
        result = run_cycle(sim, bus, TxFrame(Command.SELECT, node_address(9)))
        assert result.status is CycleStatus.TIMEOUT
        assert bus.timeouts == 1

    def test_broadcast_executes_everywhere(self):
        sim, bus, slaves = build(n_slaves=3)
        result = run_cycle(
            sim, bus, TxFrame(Command.SELECT, node_address(BROADCAST_NODE_ID))
        )
        assert result.status is CycleStatus.BROADCAST
        assert all(s.broadcast_selected for s in slaves.values())

    def test_int_piggyback_through_repeater(self):
        sim, bus, slaves = build(n_slaves=3)
        slaves[1].raise_interrupt()
        run_cycle(sim, bus, TxFrame(Command.SELECT, node_address(3)))
        result = run_cycle(sim, bus, TxFrame(Command.POLL, 0))
        assert result.rx.int_pending

    def test_attach_after_finalize_rejected(self):
        sim, bus, _slaves = build()
        with pytest.raises(TpwireError):
            bus.attach_slave(TpwireSlave(sim, 9, BusTiming()))


class _GlitchDriver(HwModule):
    """Starts a frame on ``line``, then puts two edges in its bit slot 1."""

    def __init__(self, kernel, line, bit_period):
        self.line = line
        self.bit_period = bit_period
        super().__init__(kernel, "glitch")

    def build(self):
        self.thread(self.run)

    def run(self):
        bp = self.bit_period
        self.line.write(0)
        for gap in (1.2 * bp, 0.2 * bp):
            yield wait_time(gap)
            self.line.write(1 - self.line.read())


class TestRepeaterEdges:
    def test_two_edges_in_one_bit_slot_are_refused(self):
        sim = Simulator(seed=1)
        kernel = HwKernel(sim)
        timing = PhyTiming()
        lines = [Signal(kernel, IDLE, name=f"line{i}") for i in range(4)]
        SlavePhy(kernel, TpwireSlave(sim, 1, BusTiming()), timing, *lines)
        _GlitchDriver(kernel, lines[0], timing.bit_period)
        with pytest.raises(TpwireError, match="two edges within bit slot 1"):
            sim.run()


class TestBitLevelTiming:
    def test_cycle_duration_scales_with_depth(self):
        sim1, bus1, _ = build(n_slaves=1)
        run_cycle(sim1, bus1, TxFrame(Command.SELECT, node_address(1)))
        t_shallow = sim1.now

        sim4, bus4, _ = build(n_slaves=4)
        run_cycle(sim4, bus4, TxFrame(Command.SELECT, node_address(4)))
        t_deep = sim4.now
        # Three extra hops in each direction at 2 bit periods each.
        expected_extra = 2 * 3 * 2 / 2400.0
        assert t_deep - t_shallow == pytest.approx(expected_extra, abs=1e-3)

    def test_duration_close_to_packet_model(self):
        """One cycle's duration agrees with the analytic exchange time
        within the firmware overhead + sampling quantisation."""
        sim, bus, _ = build(n_slaves=1)
        run_cycle(sim, bus, TxFrame(Command.SELECT, node_address(1)))
        timing = BusTiming(bit_rate=2400)
        analytic = timing.exchange_duration(1)
        # fw overhead 6 bits vs gap 4 bits plus <=1.25 bit sampling slack.
        slack = 6 * (1 / 2400.0)
        assert abs(sim.now - analytic) < slack

    def test_jitter_makes_cycles_vary(self):
        sim, bus, _ = build(fw_jitter=2.0, seed=3)
        durations = []

        def proc():
            for _ in range(5):
                start = sim.now
                yield bus.execute(TxFrame(Command.SELECT, node_address(1)))
                durations.append(sim.now - start)

        sim.spawn(proc())
        sim.run()
        assert len(set(round(d, 9) for d in durations)) > 1


class _ReplyAt(HwModule):
    """Stands in for the chain: once the master's TX frame starts, drives
    an ACK onto the master's up line whose start edge lies ``ticks``
    poll periods after the instant the master starts listening."""

    def __init__(self, kernel, timing, down, up, ticks, queued_late=False):
        self.timing, self.down, self.up, self.ticks = timing, down, up, ticks
        self.queued_late = queued_late
        self.edge = None
        super().__init__(kernel, "reply")

    def build(self):
        self.thread(self.run)

    def run(self):
        bp = self.timing.bit_period
        yield wait_negedge(self.down)
        # The master listens once its 16 bit periods are over; replay
        # its float additions, then those of the poll grid.
        listen = self.kernel.sim.now
        for _ in range(16):
            listen = listen + bp
        edge = listen
        for _ in range(int(self.ticks)):
            edge = edge + self.timing.poll_bits * bp
        if self.ticks % 1:
            edge = edge + (self.ticks % 1) * self.timing.poll_bits * bp
        self.edge = edge
        if self.queued_late:
            # Queue the edge's wake-up after the master's last TX wake-up
            # (one bit before it starts listening) was queued.
            yield wait_until(listen - 0.25 * bp)
        yield wait_until(edge)
        for bit in RxFrame(RxType.ACK, 0x02).to_bits():
            self.up.write(bit)
            yield wait_time(bp)
        self.up.write(IDLE)


def _receive_with_edge_at(ticks, queued_late=False):
    """Run one master cycle whose reply edge is ``ticks`` polls in;
    returns ``(status, completion time, edge time, timing)``."""
    sim = Simulator(seed=1)
    kernel = HwKernel(sim)
    timing = PhyTiming(fw_jitter_bits=0.0)
    down = Signal(kernel, IDLE, name="down")
    up = Signal(kernel, IDLE, name="up")
    master = MasterPhy(kernel, timing, down_out=down, up_in=up, chain_length=1)
    reply = _ReplyAt(kernel, timing, down, up, ticks, queued_late)
    done = Waitable(sim)
    finished = []
    done.add_callback(lambda w: finished.append((w.value.status, sim.now)))
    master.submit(TxFrame(Command.SELECT, node_address(1)), True, done.succeed)
    sim.run()
    (status, completed), = finished
    return status, completed, reply.edge, timing


def _sampling_end(detected, bp):
    """When the master takes its last RX sample after detecting at
    ``detected``: a quarter bit, then 15 bit periods, added one by one."""
    t = detected + 0.25 * bp
    for _ in range(15):
        t = t + bp
    return t


class TestStartBitDetection:
    def test_edge_on_a_poll_tick_is_detected_on_that_tick(self):
        status, completed, edge, timing = _receive_with_edge_at(8)
        assert status is CycleStatus.OK
        assert repr(completed) == repr(_sampling_end(edge, timing.bit_period))

    def test_edge_between_poll_ticks_is_detected_on_the_next_tick(self):
        status, completed, edge, timing = _receive_with_edge_at(7.4)
        _status, _completed, next_tick, _timing = _receive_with_edge_at(8)
        assert status is CycleStatus.OK
        assert edge < next_tick
        assert repr(completed) == repr(_sampling_end(next_tick, timing.bit_period))

    def test_edge_as_listening_starts_is_seen_by_the_first_check(self):
        # The edge's wake-up was queued before the master's, so the line
        # is already low when the master first looks.
        status, completed, edge, timing = _receive_with_edge_at(0)
        assert status is CycleStatus.OK
        assert repr(completed) == repr(_sampling_end(edge, timing.bit_period))

    def test_edge_after_the_first_check_is_seen_one_poll_later(self):
        # Same instant, but the first check ran before the edge committed
        # and saw the line idle: the next poll detects it.
        status, completed, edge, timing = _receive_with_edge_at(0, queued_late=True)
        bp = timing.bit_period
        assert status is CycleStatus.OK
        assert repr(completed) == repr(_sampling_end(edge + timing.poll_bits * bp, bp))

    def test_timeout_ends_at_the_instant_the_poll_loop_gave_up(self):
        sim, bus, _slaves = build()
        result = run_cycle(sim, bus, TxFrame(Command.SELECT, node_address(9)))
        assert result.status is CycleStatus.TIMEOUT
        # Recorded from the per-poll loop this wait replaced: the first
        # half-bit poll at or after the deadline.
        assert repr(sim.now) == "0.0460416666666666"


def build_either(bus_type, n_slaves):
    """``n_slaves`` protocol slaves behind either bus model at 2400 bit/s
    (no firmware jitter, so both models start each frame on time)."""
    sim = Simulator(seed=1)
    timing = BusTiming(bit_rate=2400.0)
    if bus_type is TpwireBus:
        bus = TpwireBus(sim, timing)
    else:
        bus = BitLevelTpwireBus(
            sim, HwKernel(sim), PhyTiming(bit_rate=2400.0, fw_jitter_bits=0.0)
        )
    slaves = [TpwireSlave(sim, node_id, timing) for node_id in range(1, n_slaves + 1)]
    for slave in slaves:
        bus.attach_slave(slave)
    return sim, bus, slaves, timing


@pytest.mark.parametrize("bus_type", [TpwireBus, BitLevelTpwireBus])
class TestSlaveTimeAcrossBusModels:
    """Both bus models hand the slave the same frames at the same
    instants, so its watchdog and reset pulse give the same verdicts."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_frame_inside_the_kth_watchdog_reset_pulse_times_out(self, bus_type, k):
        sim, bus, slaves, timing = build_either(bus_type, n_slaves=2)
        select = TxFrame(Command.SELECT, node_address(2))
        # Each frame reaches a slave the same delay after it starts, so
        # the second reaches every slave this long after the first: a
        # silent slave resets once every reset_timeout + reset_active,
        # and this lands mid-way through the k-th pulse.
        gap = (
            k * timing.reset_timeout
            + (k - 1) * timing.reset_active
            + timing.reset_active / 2
        )
        results = []

        def drive():
            results.append((yield bus.execute(select)))
            yield sim.timeout(gap - sim.now)
            results.append((yield bus.execute(select)))

        sim.spawn(drive())
        sim.run()
        assert [r.status for r in results] == [CycleStatus.OK, CycleStatus.TIMEOUT]
        assert [s.resets for s in slaves] == [k, k]

    def test_select_right_after_a_broadcast_reset(self, bus_type):
        sim, bus, slaves, _timing = build_either(bus_type, n_slaves=3)
        results = []
        for frame in (
            TxFrame(Command.SELECT, node_address(BROADCAST_NODE_ID)),
            TxFrame(Command.RESET, 0),
            TxFrame(Command.SELECT, node_address(3)),
        ):
            bus.execute(frame).add_callback(lambda w: results.append(w.value.status))
        sim.run()
        # The RESET's pulse starts as the frame reaches each slave, so
        # the SELECT queued behind it arrives inside the deepest pulse.
        assert results == [
            CycleStatus.BROADCAST, CycleStatus.BROADCAST, CycleStatus.TIMEOUT,
        ]
        assert [s.resets for s in slaves] == [1, 1, 1]


class TestPhyTimingValidation:
    def test_hop_vs_poll_constraint(self):
        with pytest.raises(ValueError):
            PhyTiming(hop_delay_bits=0.25, poll_bits=0.5)

    @pytest.mark.parametrize("timing", [
        {"hop_delay_bits": 1.0, "poll_bits": 0.5},
        {"turnaround_bits": 0.5, "poll_bits": 0.5},
        {"timeout_margin": 0.9},
    ])
    def test_timings_the_replayed_poll_grid_cannot_reproduce(self, timing):
        # At these values a start bit could land on a poll instant with
        # its event queued after that poll's (or on the deadline poll),
        # where a per-poll loop would not have seen it.
        with pytest.raises(ValueError):
            PhyTiming(**timing)

    def test_fw_overhead_floor(self):
        with pytest.raises(ValueError):
            PhyTiming(fw_overhead_bits=1.0, fw_jitter_bits=1.0)

    def test_bit_rate_positive(self):
        with pytest.raises(ValueError):
            PhyTiming(bit_rate=0)
