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

The PHY works per frame, not per bit slot.  A driver (the master's
transmitter, a slave's reply) knows its whole frame when it starts, so
it schedules each level change as a timed write and wakes once, a bit
after the last.  A repeater forwards on its input's edges, from a commit
listener (:class:`_Repeater`), and its thread wakes only at the start
bit, at the INT-deciding second sample (upstream) and at the last
sample, where it decodes the frame from the line's transition log and
hands it to the protocol.  Every write and wake-up carries the event key
of the per-bit wake-up it replaces (:mod:`repro.hw.kernel`), so lines
commit at the same instants and in the same order as when every sample
woke its thread.

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
    wait_key,
    wait_negedge,
    wait_negedge_until,
    wait_time,
    wait_until,
)
from repro.tpwire.bus import (
    RESULT_BROADCAST,
    RESULT_CRC_ERROR,
    RESULT_TIMEOUT,
    ok_result,
)
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


def _sample_grid(first: tuple, bit_period: float) -> list:
    """Keys of a frame's 16 bit-slot samples, ``first`` the first's: the
    wake-ups of a loop that samples once per bit period."""
    grid = [first]
    append = grid.append
    key = first
    time = first[0]
    for _ in range(FRAME_BITS - 1):
        time = time + bit_period
        key = (time, 0, key, 1)
        append(key)
    return grid


def _drive(
    kernel: HwKernel, line: Signal, bits, key: tuple, level: int, bit_period: float
) -> tuple:
    """Schedule ``bits`` on ``line``, now at ``level``, one per bit period:
    each level change as the wake-up of its slot (``key`` the first's).
    Returns the key of the slot after the last bit and the level left."""
    write_at = kernel.write_at
    for bit in bits:
        if bit != level:
            write_at(key, line, bit)
            level = bit
        key = (key[0] + bit_period, 0, key, 1)
    return key, level


class _Repeater:
    """Repeats one frame at a time from an input line onto an output line.

    A repeater samples each bit at the middle of its slot and, when the
    sample differs from the level last scheduled on the output, writes
    it there ``hop_delay_bits - 0.5`` bits after the sample.  The input's
    commit listener does that per edge: an edge is first seen by the
    sample after it, so the listener finds that slot on the frame's
    sample grid and schedules the write the sample would have queued,
    under the key it would have had.  Between samples the level holds,
    so a slot with no edge forwards nothing.  That takes one edge per
    slot, which every driver keeps — each writes on a bit-period grid,
    and a line carries one frame at a time — and a second edge in one
    slot raises rather than being forwarded twice.

    Slots before ``first_slot`` are left to the owning thread, which
    wakes at their sample (the INT bit, upstream).
    """

    __slots__ = (
        "kernel", "line", "out", "bit_period", "lag", "tail",
        "level", "grid", "slot", "first_slot",
    )

    def __init__(self, kernel: HwKernel, line: Signal, out: Signal, timing: PhyTiming):
        self.kernel = kernel
        self.line = line
        self.out = out
        self.bit_period = bp = timing.bit_period
        hop = timing.hop_delay_bits * bp
        self.lag = hop - 0.5 * bp
        self.tail = hop + 0.5 * bp
        #: Level last scheduled on ``out``.
        self.level = IDLE
        #: Sample keys of the frame being repeated, or ``None`` between frames.
        self.grid: Optional[list] = None
        self.slot = 0
        self.first_slot = 0
        line.on_commit(self)

    def open(self, first_slot: int) -> list:
        """At a start bit's edge: start repeating the frame; returns the
        keys of its samples."""
        kernel = self.kernel
        first = kernel.child_key(kernel.sim.now + 0.5 * self.bit_period)
        self.grid = _sample_grid(first, self.bit_period)
        self.slot = 0
        self.first_slot = first_slot
        self.forward(0, self.line.read())
        return self.grid

    def close(self) -> None:
        """At the last sample: stop repeating, and return the output to
        idle one bit after the last slot's forward."""
        self.grid = None
        if self.level != IDLE:
            kernel = self.kernel
            kernel.write_at(kernel.child_key(kernel.sim.now + self.tail), self.out, IDLE)
            self.level = IDLE

    def forward(self, slot: int, value: int) -> None:
        """Forward what the sample of ``slot`` reads."""
        if value != self.level:
            sample = self.grid[slot]
            self.kernel.write_at((sample[0] + self.lag, 0, sample, 0), self.out, value)
            self.level = value

    def __call__(self, key: tuple, value: int) -> None:
        grid = self.grid
        if grid is None:
            return
        slot = self.slot
        while grid[slot] < key:
            slot += 1
            if slot == FRAME_BITS:
                return  # after the last sample: the frame's return to idle
        if slot == self.slot:
            raise TpwireError(
                f"{self.out.name}: two edges within bit slot {slot} of one frame"
            )
        if slot < self.first_slot:
            return
        self.slot = slot
        self.forward(slot, value)


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
        self._down = _Repeater(self.kernel, self.down_in, self.down_out, self.timing)
        #: Replies are driven on ``up_out`` too, through this repeater's
        #: level.
        self._up = _Repeater(self.kernel, self.up_in, self.up_out, self.timing)
        self.thread(self._downstream)
        self.thread(self._upstream)

    # -- downstream: receive, repeat, execute --------------------------------

    def _downstream(self):
        sim = self.kernel.sim
        down_in = self.down_in
        while True:
            yield wait_negedge(down_in)
            grid = self._down.open(1)
            yield wait_key(grid[-1])
            self._down.close()
            self.frames_seen += 1
            try:
                frame = TxFrame.from_bits(down_in.values_at(grid))
            except FrameError:
                self.crc_drops += 1
                continue
            reply = self.protocol.receive_tx(frame, sim.now)
            if reply is None:
                continue
            self.frames_executed += 1
            # The reply is known whole: schedule it after the turnaround,
            # and wake a bit after its last bit to return the line to idle.
            bp = self.timing.bit_period
            first = self.kernel.child_key(sim.now + self.timing.turnaround_bits * bp)
            end, self._up.level = _drive(
                self.kernel, self.up_out, reply.to_bits(), first, self._up.level, bp
            )
            yield wait_key(end)
            if self._up.level != IDLE:
                self.up_out.write(IDLE)
                self._up.level = IDLE

    # -- upstream: repeat replies from deeper slaves, inject INT ----------------

    def _upstream(self):
        up_in = self.up_in
        up = self._up
        while True:
            yield wait_negedge(up_in)
            grid = up.open(2)
            # Sec. 3.1: the INT bit is set as the RX frame passes through
            # a slave with a pending interrupt — decided at the second
            # sample, from the flag at that instant.
            yield wait_key(grid[1])
            bit = up_in.read()
            if self.protocol.interrupt_pending:
                bit = 1
            up.forward(1, bit)
            if bit != up_in.read():
                # The injected bit left the output off the input's level:
                # the third sample restores it unless an edge did first.
                yield wait_key(grid[2])
                up.forward(2, up_in.read())
            yield wait_key(grid[-1])
            up.close()


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

    def submit(self, frame: TxFrame, expect_reply: bool, on_result) -> None:
        """Queue one cycle; ``on_result(CycleResult)`` fires when it ends."""
        self._queue.append((frame, expect_reply, on_result))
        self._kick.write(1 - self._kick.value)

    # -- transmit/receive engine -------------------------------------------------

    def _run(self):
        bp = self.timing.bit_period
        kernel = self.kernel
        sim = kernel.sim
        down_out = self.down_out
        while True:
            if not self._queue:
                yield wait_change(self._kick)
                continue
            frame, expect_reply, on_result = self._queue.popleft()
            # Master firmware overhead before each cycle (with jitter);
            # the cycle's event keys grow from this wake-up.
            jitter = self._rng.uniform(
                -self.timing.fw_jitter_bits, self.timing.fw_jitter_bits
            )
            fw = (self.timing.fw_overhead_bits + jitter) * bp
            yield wait_key(kernel.root_key(sim.now + fw))
            self.tx_frames += 1
            # The frame is known whole: the start bit commits now, every
            # later level change is scheduled as its bit slot's wake-up,
            # and the thread wakes again one bit after the last.
            bits = frame.to_bits()
            if bits[0] != IDLE:
                down_out.write(bits[0])
            end, level = _drive(
                kernel, down_out, bits[1:], kernel.child_key(sim.now + bp), bits[0], bp
            )
            yield wait_key(end)
            if level != IDLE:
                down_out.write(IDLE)
            if not expect_reply:
                # Broadcast: let the frame flush through the chain.
                tail = self.timing.hop_delay_bits * self.chain_length
                yield wait_time(tail * bp)
                on_result(RESULT_BROADCAST)
                continue
            on_result((yield from self._receive()))

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

        The 15 bits after the start bit are sampled a quarter bit into
        their slots; the thread wakes once, at the last sample, and reads
        all 15 from the line's transition log.
        """
        bp = self.timing.bit_period
        poll = self.timing.poll_bits * bp
        kernel = self.kernel
        up_in = self.up_in
        start = kernel.sim.now
        deadline = start + self.timing.response_timeout(self.chain_length)
        if up_in.read() == IDLE:
            last_poll = start
            while last_poll < deadline:
                last_poll = last_poll + poll
            yield wait_negedge_until(up_in, last_poll)
            if up_in.read() == IDLE:
                self.timeouts += 1
                return RESULT_TIMEOUT
            # The poll at ``start`` was the check above, which saw the
            # line idle, so the first poll that can see the edge is the
            # next one.
            edge = kernel.sim.now
            detected = start + poll
            while detected < edge:
                detected = detected + poll
            if detected > edge:
                yield wait_until(detected)
        # Offset sampling a quarter bit so samples never coincide with a
        # bit boundary.
        key = kernel.child_key(kernel.sim.now + 0.25 * bp)
        samples = _sample_grid(key, bp)[1:]
        yield wait_key(samples[-1])
        try:
            rx = RxFrame.from_bits([0] + up_in.values_at(samples))
        except FrameError:
            self.crc_errors += 1
            return RESULT_CRC_ERROR
        self.rx_frames += 1
        return ok_result(rx)


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
        """Run one communication cycle; succeeds with a :class:`CycleResult`."""
        done = Waitable(self.sim)
        self.execute_cb(frame, expect_reply, done.succeed)
        return done

    def execute_cb(self, frame: TxFrame, expect_reply: bool, on_result) -> None:
        """:meth:`execute` without the waitable: ``on_result(CycleResult)``
        fires when the cycle completes (the master's transaction engine
        chains on this)."""
        if self.master_phy is None:
            self.finalize()
        self.cycles += 1
        self.master_phy.submit(frame, expect_reply and frame.expects_reply, on_result)

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
