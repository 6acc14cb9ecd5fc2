"""Bit-level TpWIRE bus on the delta-cycle kernel.

This is the reproduction's stand-in for the *physical* TpICU/SCM bus of
Table 3: every start bit, command bit, data bit and CRC bit is serialised
on signals (each line commits one transition per level change, and the
drivers schedule only those); slaves repeat frames down the daisy chain
with a per-hop repeater delay, inject the INT bit into passing RX frames,
and run the same :class:`~repro.tpwire.slave.TpwireSlave` protocol state
machine as the packet-level model — so the two models differ *only* in
how the wire is represented, which is precisely what a validation
experiment must isolate.

Timing artifacts the packet-level model does not capture (and which the
Table 3 scaling factor therefore measures):

* per-frame master firmware overhead with jitter (a software master
  cannot emit back-to-back frames at exactly the protocol gap);
* start-bit detection quantisation (the master polls the line at half-bit
  granularity, so RX reception is detected up to half a bit late; the
  model waits for the edge and replays the poll grid to find the poll
  that sees it).

:class:`BitLevelTpwireBus` exposes the same ``execute(frame)`` interface
as :class:`repro.tpwire.bus.TpwireBus`, so the same
:class:`~repro.tpwire.master.TpwireMaster` (and everything above it) can
run on either model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.des.process import Waitable
from repro.hw.kernel import HwKernel
from repro.hw.module import HwModule
from repro.hw.signal import (
    Signal,
    wait_change,
    wait_negedge,
    wait_negedge_until,
    wait_time,
    wait_until,
)
from repro.tpwire.bus import CycleResult, CycleStatus
from repro.tpwire.errors import FrameError, TpwireError
from repro.tpwire.frames import FRAME_BITS, RxFrame, TxFrame
from repro.tpwire.slave import TpwireSlave

#: Idle level of a TpWIRE line.
IDLE = 1


@dataclass(frozen=True)
class PhyTiming:
    """Bit-level timing parameters."""

    bit_rate: float = 2400.0
    hop_delay_bits: float = 2.0
    turnaround_bits: float = 4.0
    #: Mean master firmware overhead between cycles, in bit periods.
    fw_overhead_bits: float = 6.0
    #: Half-width of the uniform firmware jitter, in bit periods.
    fw_jitter_bits: float = 2.0
    #: RX polling granularity, in bit periods.
    poll_bits: float = 0.5
    #: Multiplier on the expected response time before timing out.
    timeout_margin: float = 2.0

    def __post_init__(self):
        if self.bit_rate <= 0:
            raise ValueError("bit rate must be positive")
        # The master finds its detecting poll by replay, not by waking at
        # each poll (MasterPhy._receive).  That gives the per-poll result
        # only if an edge's event is queued more than one poll ahead (an
        # edge on a poll instant then counts as seen) and every reply's
        # start bit comes before the deadline poll.
        if self.hop_delay_bits - 0.5 <= self.poll_bits:
            raise ValueError(
                "hop delay must exceed the poll granularity by more than half a bit"
            )
        if self.turnaround_bits <= self.poll_bits:
            raise ValueError("turnaround must exceed the poll granularity")
        if self.timeout_margin < 1.0:
            raise ValueError("timeout margin must cover the expected response")
        if self.fw_overhead_bits - self.fw_jitter_bits < 1.0:
            raise ValueError("firmware overhead must leave >= 1 idle bit")

    @property
    def bit_period(self) -> float:
        return 1.0 / self.bit_rate

    def response_timeout(self, chain_length: int) -> float:
        expected_bits = (
            FRAME_BITS
            + self.hop_delay_bits * chain_length
            + self.turnaround_bits
            + FRAME_BITS
            + self.hop_delay_bits * chain_length
        )
        return expected_bits * self.bit_period * self.timeout_margin


class SlavePhy(HwModule):
    """Bit-level line interface of one slave.

    Owns the downstream receiver/repeater and the upstream
    repeater/injector; protocol decisions are delegated to the shared
    :class:`TpwireSlave` state machine.
    """

    def __init__(
        self,
        kernel: HwKernel,
        protocol: TpwireSlave,
        timing: PhyTiming,
        down_in: Signal,
        down_out: Signal,
        up_in: Signal,
        up_out: Signal,
        name: str = "",
    ):
        self.protocol = protocol
        self.timing = timing
        self.down_in = down_in
        self.down_out = down_out
        self.up_in = up_in
        self.up_out = up_out
        self.frames_seen = 0
        self.frames_executed = 0
        self.crc_drops = 0
        super().__init__(kernel, name or f"phy.{protocol.name}")

    def build(self) -> None:
        #: Level last scheduled on ``up_out``, which both ``_drive_up``
        #: and ``_upstream`` drive (``down_out`` has one driver, so
        #: ``_downstream`` keeps its level in a local).
        self._up_level = IDLE
        self.thread(self._downstream)
        self.thread(self._upstream)

    # -- downstream: receive, repeat, execute --------------------------------

    def _downstream(self):
        bp = self.timing.bit_period
        hop = self.timing.hop_delay_bits * bp
        sim = self.kernel.sim
        write_after = self.kernel.write_after
        down_in, down_out = self.down_in, self.down_out
        half_bit, one_bit = wait_time(0.5 * bp), wait_time(bp)
        level = IDLE
        while True:
            yield wait_negedge(down_in)
            # Start-bit edge: sample each bit slot at its midpoint and
            # forward it so it appears on down_out hop_delay after its
            # slot boundary.  Only level changes are scheduled: a line
            # carries one frame at a time, so its writes commit in the
            # order they are scheduled, and one repeating the level
            # before it would commit nothing.
            bits = []
            yield half_bit
            for index in range(FRAME_BITS):
                bit = down_in.read()
                bits.append(bit)
                if bit != level:
                    write_after(hop - 0.5 * bp, down_out, bit)
                    level = bit
                if index < FRAME_BITS - 1:
                    yield one_bit
            if level != IDLE:
                write_after(hop + 0.5 * bp, down_out, IDLE)
                level = IDLE
            self.frames_seen += 1
            try:
                frame = TxFrame.from_bits(bits)
            except FrameError:
                self.crc_drops += 1
                continue
            reply = self.protocol.receive_tx(frame, sim.now)
            if reply is None:
                continue
            self.frames_executed += 1
            yield wait_time(self.timing.turnaround_bits * bp)
            yield from self._drive_up(reply.to_bits())

    def _drive_up(self, bits):
        bp = self.timing.bit_period
        up_out = self.up_out
        one_bit = wait_time(bp)
        for bit in bits:
            if bit != self._up_level:
                up_out.write(bit)
                self._up_level = bit
            yield one_bit
        if self._up_level != IDLE:
            up_out.write(IDLE)
            self._up_level = IDLE

    # -- upstream: repeat replies from deeper slaves, inject INT ----------------

    def _upstream(self):
        bp = self.timing.bit_period
        hop = self.timing.hop_delay_bits * bp
        write_after = self.kernel.write_after
        up_in, up_out = self.up_in, self.up_out
        half_bit, one_bit = wait_time(0.5 * bp), wait_time(bp)
        while True:
            yield wait_negedge(up_in)
            yield half_bit
            for index in range(FRAME_BITS):
                bit = up_in.read()
                if index == 1 and self.protocol.interrupt_pending:
                    # Sec. 3.1: the INT bit is set as the RX frame passes
                    # through a slave with a pending interrupt.
                    bit = 1
                if bit != self._up_level:
                    write_after(hop - 0.5 * bp, up_out, bit)
                    self._up_level = bit
                if index < FRAME_BITS - 1:
                    yield one_bit
            if self._up_level != IDLE:
                write_after(hop + 0.5 * bp, up_out, IDLE)
                self._up_level = IDLE


class MasterPhy(HwModule):
    """Bit-level master port: drives TX frames, samples RX frames."""

    def __init__(
        self,
        kernel: HwKernel,
        timing: PhyTiming,
        down_out: Signal,
        up_in: Signal,
        chain_length: int,
        name: str = "phy.master",
    ):
        self.timing = timing
        self.down_out = down_out
        self.up_in = up_in
        self.chain_length = chain_length
        self._queue: deque = deque()
        self._rng = kernel.sim.stream("hw.master-fw")
        self.tx_frames = 0
        self.rx_frames = 0
        self.timeouts = 0
        self.crc_errors = 0
        super().__init__(kernel, name)

    def build(self) -> None:
        self._kick = self.signal(0, name="kick")
        self.thread(self._run)

    # -- public request API ----------------------------------------------------

    def submit(self, frame: TxFrame, expect_reply: bool, done: Waitable) -> None:
        self._queue.append((frame, expect_reply, done))
        self._kick.write(1 - self._kick.value)

    # -- transmit/receive engine -------------------------------------------------

    def _run(self):
        bp = self.timing.bit_period
        down_out = self.down_out
        one_bit = wait_time(bp)
        level = IDLE
        while True:
            if not self._queue:
                yield wait_change(self._kick)
                continue
            frame, expect_reply, done = self._queue.popleft()
            # Master firmware overhead before each cycle (with jitter).
            jitter = self._rng.uniform(
                -self.timing.fw_jitter_bits, self.timing.fw_jitter_bits
            )
            yield wait_time((self.timing.fw_overhead_bits + jitter) * bp)
            self.tx_frames += 1
            for bit in frame.to_bits():
                if bit != level:
                    down_out.write(bit)
                    level = bit
                yield one_bit
            if level != IDLE:
                down_out.write(IDLE)
                level = IDLE
            if not expect_reply:
                # Broadcast: let the frame flush through the chain.
                tail = self.timing.hop_delay_bits * self.chain_length
                yield wait_time(tail * bp)
                done.succeed(CycleResult(CycleStatus.BROADCAST))
                continue
            result = yield from self._receive()
            done.succeed(result)

    def _receive(self):
        """Detect the RX start bit on the half-bit poll grid, then sample.

        The firmware checks the line now and then every ``poll_bits``,
        and gives up at the first poll at or after the deadline.  Rather
        than waking at every poll, the thread waits once for the start
        bit's falling edge or that last poll, whichever comes first, and
        then replays the grid's float additions to find the poll that
        would have seen the edge: the first at or after it, so detection
        lags the edge by less than ``poll_bits`` (quantisation that the
        packet-level model does not have).

        A poll that falls on the very instant of the edge sees it.  The
        edge comes from a forwarded write scheduled
        ``hop_delay_bits - 0.5`` bits ahead, or from a reply whose first
        bit waited ``turnaround_bits``; :class:`PhyTiming` requires both
        to exceed ``poll_bits``, so the edge's event was queued before
        the previous poll queued its wake-up for that instant, and ran
        first.  A reply's start bit reaches the master at least 32 bits
        before the deadline poll (``timeout_margin >= 1``), so the edge
        never ties with the timeout.
        """
        bp = self.timing.bit_period
        poll = self.timing.poll_bits * bp
        up_in = self.up_in
        start = self.kernel.sim.now
        deadline = start + self.timing.response_timeout(self.chain_length)
        if up_in.read() == IDLE:
            last_poll = start
            while last_poll < deadline:
                last_poll = last_poll + poll
            yield wait_negedge_until(up_in, last_poll)
            if up_in.read() == IDLE:
                self.timeouts += 1
                return CycleResult(CycleStatus.TIMEOUT)
            # The poll at ``start`` was the check above, which saw the
            # line idle, so the first poll that can see the edge is the
            # next one.
            edge = self.kernel.sim.now
            detected = start + poll
            while detected < edge:
                detected = detected + poll
            if detected > edge:
                yield wait_until(detected)
        # Offset sampling a quarter bit so samples never coincide with a
        # bit boundary.
        yield wait_time(0.25 * bp)
        one_bit = wait_time(bp)
        bits = [0]
        for _ in range(FRAME_BITS - 1):
            yield one_bit
            bits.append(up_in.read())
        try:
            rx = RxFrame.from_bits(bits)
        except FrameError:
            self.crc_errors += 1
            return CycleResult(CycleStatus.CRC_ERROR)
        self.rx_frames += 1
        return CycleResult(CycleStatus.OK, rx)


class BitLevelTpwireBus:
    """Bit-accurate TpWIRE bus with the packet-level bus's interface.

    Attach the protocol slaves in chain order, then finalize; it wires
    up the PHY chain::

        hwbus = BitLevelTpwireBus(sim, kernel, timing)
        hwbus.attach_slave(s1)
        hwbus.attach_slave(s2)
        hwbus.finalize()
        master = TpwireMaster(sim, hwbus)   # same master as packet level
    """

    def __init__(
        self,
        sim,
        kernel: HwKernel,
        timing: Optional[PhyTiming] = None,
        name: str = "hw-tpwire",
    ):
        self.sim = sim
        self.kernel = kernel
        self.timing = timing if timing is not None else PhyTiming()
        self.name = name
        self.slaves: list[TpwireSlave] = []
        self.slave_phys: list[SlavePhy] = []
        self._by_node_id: dict[int, TpwireSlave] = {}
        self._down_head = Signal(kernel, IDLE, name=f"{name}.down0")
        self._up_head = Signal(kernel, IDLE, name=f"{name}.up0")
        self.master_phy: Optional[MasterPhy] = None
        self._down_tail = self._down_head
        self._up_tail = self._up_head
        self.cycles = 0

    # -- construction -------------------------------------------------------

    def attach_slave(self, slave: TpwireSlave) -> None:
        if self.master_phy is not None:
            raise TpwireError("cannot attach slaves after finalize()")
        if slave.node_id in self._by_node_id:
            raise TpwireError(f"duplicate node id {slave.node_id}")
        index = len(self.slaves)
        down_next = Signal(self.kernel, IDLE, name=f"{self.name}.down{index + 1}")
        up_next = Signal(self.kernel, IDLE, name=f"{self.name}.up{index + 1}")
        phy = SlavePhy(
            self.kernel,
            slave,
            self.timing,
            down_in=self._down_tail,
            down_out=down_next,
            up_in=up_next,
            up_out=self._up_tail,
        )
        self.slaves.append(slave)
        self.slave_phys.append(phy)
        self._by_node_id[slave.node_id] = slave
        self._down_tail = down_next
        self._up_tail = up_next

    def finalize(self) -> None:
        """Create the master PHY once the chain is complete."""
        if self.master_phy is not None:
            return
        self.master_phy = MasterPhy(
            self.kernel,
            self.timing,
            down_out=self._down_head,
            up_in=self._up_head,
            chain_length=len(self.slaves),
            name=f"{self.name}.master",
        )

    # -- TpwireBus-compatible interface ---------------------------------------

    def execute(self, frame: TxFrame, expect_reply: bool = True) -> Waitable:
        if self.master_phy is None:
            self.finalize()
        done = Waitable(self.sim)
        self.cycles += 1
        self.master_phy.submit(frame, expect_reply and frame.expects_reply, done)
        return done

    def execute_cb(self, frame: TxFrame, expect_reply: bool, on_result) -> None:
        """Callback-style :meth:`execute` (packet-level bus protocol).

        The bit-level bus is not throughput-critical, so it adapts the
        waitable form instead of duplicating the submit path."""
        self.execute(frame, expect_reply).add_callback(
            lambda done: on_result(done.value)
        )

    def slave_by_id(self, node_id: int) -> TpwireSlave:
        try:
            return self._by_node_id[node_id]
        except KeyError:
            from repro.tpwire.errors import NoSuchNode
            raise NoSuchNode(f"no slave with node id {node_id} on {self.name}")

    @property
    def chain_length(self) -> int:
        return len(self.slaves)

    @property
    def tx_frames(self) -> int:
        return self.master_phy.tx_frames if self.master_phy else 0

    @property
    def rx_frames(self) -> int:
        return self.master_phy.rx_frames if self.master_phy else 0

    @property
    def timeouts(self) -> int:
        return self.master_phy.timeouts if self.master_phy else 0

    @property
    def crc_errors(self) -> int:
        return self.master_phy.crc_errors if self.master_phy else 0

    def __repr__(self) -> str:
        return f"BitLevelTpwireBus({self.name!r}, slaves={len(self.slaves)})"
