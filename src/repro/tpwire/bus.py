"""Packet-level TpWIRE bus: the NS-2 TpWIRE model of the paper.

One :class:`TpwireBus` is a single line group (1-wire, or an n-wire
parallel-data group) connecting the master to a daisy chain of slaves.
A *communication cycle* (Sec. 3.1) is simulated as timed events:

1. the master's TX frame propagates down the chain, reaching the slave at
   depth *h* after ``frame_duration + h * hop_delay``;
2. each slave it passes receives it (:meth:`TpwireSlave.receive_tx`:
   reset watchdog, then execution by the selected slave);
3. after the turnaround time the responder's RX frame travels back up,
   collecting the INT bit from any slave with a pending interrupt;
4. the master either receives the RX frame or times out.

The bus serialises cycles (single line); concurrent callers queue on an
internal capacity-1 resource.  Frame corruption is injected by a
:class:`BitErrorModel` — a corrupted TX is not executed by anyone (and does
not feed watchdogs); a corrupted RX surfaces as a CRC error at the master.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.des.monitor import RateMonitor, TimeWeightedMonitor
from repro.des.process import Waitable
from repro.tpwire.errors import NoSuchNode, TpwireError
from repro.tpwire.frames import RxFrame, TxFrame
from repro.tpwire.slave import TpwireSlave
from repro.tpwire.timing import BusTiming


class CycleStatus(enum.Enum):
    OK = "ok"                #: RX frame received and valid
    TIMEOUT = "timeout"      #: nobody replied within the expected period
    CRC_ERROR = "crc-error"  #: the master received a corrupted RX frame
    BROADCAST = "broadcast"  #: broadcast cycle, no reply expected


@dataclass(frozen=True)
class CycleResult:
    """Outcome of one communication cycle."""

    status: CycleStatus
    rx: Optional[RxFrame] = None

    @property
    def ok(self) -> bool:
        return self.status in (CycleStatus.OK, CycleStatus.BROADCAST)


#: Shared outcomes of both bus models: one of these finishes every cycle
#: that carries no RX frame, and :func:`ok_result` hands out one OK
#: outcome per RX frame value, so no cycle builds a frozen dataclass.
RESULT_BROADCAST = CycleResult(CycleStatus.BROADCAST)
RESULT_TIMEOUT = CycleResult(CycleStatus.TIMEOUT)
RESULT_CRC_ERROR = CycleResult(CycleStatus.CRC_ERROR)

#: Bounded by the RX frame value space (4 types x 256 bytes x INT bit).
_OK_RESULTS: dict[RxFrame, CycleResult] = {}


def ok_result(rx: RxFrame) -> CycleResult:
    """The OK outcome carrying ``rx``, interned per frame value."""
    result = _OK_RESULTS.get(rx)
    if result is None:
        result = _OK_RESULTS[rx] = CycleResult(CycleStatus.OK, rx)
    return result


class BitErrorModel:
    """Per-frame corruption probabilities, drawn from a named RNG stream."""

    def __init__(self, sim, p_tx: float = 0.0, p_rx: float = 0.0, stream: str = "tpwire.errors"):
        for name, p in (("p_tx", p_tx), ("p_rx", p_rx)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        self.p_tx = p_tx
        self.p_rx = p_rx
        self._rng = sim.stream(stream)
        self.corrupted_tx = 0
        self.corrupted_rx = 0

    def corrupt_tx(self) -> bool:
        if self.p_tx and self._rng.random() < self.p_tx:
            self.corrupted_tx += 1
            return True
        return False

    def corrupt_rx(self) -> bool:
        if self.p_rx and self._rng.random() < self.p_rx:
            self.corrupted_rx += 1
            return True
        return False


class TpwireBus:
    """A daisy chain of slaves behind one master port."""

    def __init__(
        self,
        sim,
        timing: Optional[BusTiming] = None,
        error_model: Optional[BitErrorModel] = None,
        name: str = "tpwire",
        obs=None,
    ):
        self.sim = sim
        self.timing = timing if timing is not None else BusTiming()
        self.error_model = error_model
        self.name = name
        #: Slaves in chain order: index 0 is closest to the master
        #: (depth/hops = index + 1).
        self.slaves: list[TpwireSlave] = []
        self._by_node_id: dict[int, TpwireSlave] = {}
        #: ``(slave, arrival_delay, exchange_duration)`` in chain order:
        #: the per-depth ``tx_arrival_delay`` and ``exchange_duration``
        #: lookups hoisted out of the per-frame walk in
        #: :meth:`_find_responder`.
        self._chain: list[tuple[TpwireSlave, float, float]] = []
        self._busy = False
        self._pending: deque[tuple[TxFrame, bool, object]] = deque()
        # -- statistics
        self.tx_frames = 0
        self.rx_frames = 0
        self.timeouts = 0
        self.crc_errors = 0
        self.cycles = 0
        self.utilization = TimeWeightedMonitor(sim, name=f"{name}.util")
        self.frame_rate = RateMonitor(sim, name=f"{name}.frames")
        # -- observability (nullable; the fast path skips all of it)
        self.obs = obs
        if obs is not None:
            metrics = obs.metrics
            metrics.attach(f"{name}.tx_frames", lambda: self.tx_frames)
            metrics.attach(f"{name}.rx_frames", lambda: self.rx_frames)
            metrics.attach(f"{name}.timeouts", lambda: self.timeouts)
            metrics.attach(f"{name}.crc_errors", lambda: self.crc_errors)
            self._queue_depth = metrics.gauge(f"{name}.queue_depth")
            metrics.attach(f"{name}.utilization", self.utilization)
            metrics.attach(f"{name}.frame_rate", self.frame_rate)
            obs.vcd.signal(f"{name}.busy", scope="tpwire")

    # -- construction ------------------------------------------------------

    def attach_slave(self, slave: TpwireSlave) -> None:
        """Append a slave at the far end of the daisy chain."""
        if slave.node_id in self._by_node_id:
            raise TpwireError(f"duplicate node id {slave.node_id}")
        self.slaves.append(slave)
        self._by_node_id[slave.node_id] = slave
        depth = len(self.slaves)
        self._chain.append((
            slave,
            self.timing.tx_arrival_delay(depth),
            self.timing.exchange_duration(depth),
        ))

    def slave_by_id(self, node_id: int) -> TpwireSlave:
        try:
            return self._by_node_id[node_id]
        except KeyError:
            raise NoSuchNode(f"no slave with node id {node_id} on {self.name}")

    def hops_of(self, node_id: int) -> int:
        """Chain depth of a node (1 = first slave)."""
        slave = self.slave_by_id(node_id)
        return self.slaves.index(slave) + 1

    @property
    def chain_length(self) -> int:
        return len(self.slaves)

    # -- cycle execution ------------------------------------------------------

    def execute(self, frame: TxFrame, expect_reply: bool = True) -> Waitable:
        """Run one communication cycle; succeeds with a :class:`CycleResult`.

        Cycles are serialised: if the line is busy the cycle queues
        (FIFO).  ``expect_reply=False`` marks fire-and-forget frames (DMA
        burst payload): the cycle lasts only the TX leg and completes with
        :attr:`CycleStatus.BROADCAST` regardless of any slave reply, as
        does every frame whose :attr:`TxFrame.expects_reply` is false.
        """
        done = Waitable(self.sim)
        self.execute_cb(frame, expect_reply, done.succeed)
        return done

    def execute_cb(
        self, frame: TxFrame, expect_reply: bool, on_result
    ) -> None:
        """:meth:`execute` without the waitable: ``on_result(CycleResult)``
        fires when the cycle completes.  The master's transaction engine
        chains on this directly — one communication cycle per frame makes
        the waitable allocation and its callback dispatch pure overhead
        when the caller already is a callback."""
        if self._busy:
            self._pending.append((frame, expect_reply, on_result))
            if self.obs is not None:
                self._queue_depth.set(len(self._pending))
        else:
            self._start_cycle(frame, expect_reply, on_result)

    def _start_cycle(self, frame: TxFrame, expect_reply: bool, on_result) -> None:
        sim = self.sim
        error_model = self.error_model
        obs = self.obs
        self._busy = True
        self.utilization.set(1.0)
        self.cycles += 1
        self.tx_frames += 1
        self.frame_rate.tick()
        corrupted = (
            error_model.corrupt_tx() if error_model is not None else False
        )
        if obs is not None:
            obs.vcd.change(f"{self.name}.busy", 1, sim.now)
            obs.tracer.event(
                "tpwire", "tx", cmd=frame.cmd.name, data=frame.data,
                corrupted=corrupted,
            )
        responder = None if corrupted else self._find_responder(frame)
        if not (expect_reply and frame.expects_reply):
            # No reply expected: the cycle lasts the broadcast duration
            # (execution on the slaves has already been applied above).
            duration = self.timing.broadcast_duration(len(self.slaves))
            sim.call_after(
                duration, self._finish_cycle, on_result, RESULT_BROADCAST,
            )
            return
        if responder is None:
            timeout = self.timing.response_timeout(len(self.slaves))
            self.timeouts += 1
            sim.call_after(
                timeout, self._finish_cycle, on_result, RESULT_TIMEOUT,
            )
            return
        rx_frame, duration = responder
        rx_corrupted = (
            error_model.corrupt_rx() if error_model is not None else False
        )
        if rx_corrupted:
            self.crc_errors += 1
            result = RESULT_CRC_ERROR
        else:
            self.rx_frames += 1
            self.frame_rate.tick()
            result = ok_result(rx_frame)
        sim.call_after(duration, self._finish_cycle, on_result, result)

    def _finish_cycle(self, on_result, result: CycleResult) -> None:
        if self.obs is not None:
            self.obs.tracer.event("tpwire", "rx", status=result.status.value)
        had_queued = bool(self._pending)
        on_result(result)
        if not had_queued:
            # The line went idle at this timestamp: anything queued now
            # was chained by on_result just above.  The busy waveform
            # marks the idle point even when a chained frame follows at
            # the same instant (the waitable path used to defer the
            # chained submission, so it pulsed once per cycle); the
            # utilization monitor skips that zero-width gap — it
            # contributes nothing to the time-weighted integral — and is
            # only touched when the bus genuinely goes idle.
            if self.obs is not None:
                self.obs.vcd.change(f"{self.name}.busy", 0, self.sim.now)
            if not self._pending:
                self._busy = False
                self.utilization.set(0.0)
        if self._pending:
            frame, expect_reply, next_on_result = self._pending.popleft()
            if self.obs is not None:
                self._queue_depth.set(len(self._pending))
            self._start_cycle(frame, expect_reply, next_on_result)

    # -- helpers ---------------------------------------------------------------

    def _find_responder(self, frame: TxFrame) -> Optional[tuple[RxFrame, float]]:
        """Deliver the frame down the chain; return ``(rx, duration)`` if
        a slave replies, ``duration`` being the exchange time at its depth.

        Each slave receives the frame stamped with its own arrival time,
        but all of them at cycle start, in chain order, rather than as
        one event per slave: slave state is only ever read through bus
        cycles (which the busy flag serialises), so resolving the walk
        eagerly is observationally equivalent, and the returned duration
        carries the timing.  SELECT frames update every slave's
        selection state; other commands execute on whichever slave
        considers itself selected.
        """
        now = self.sim.now
        chain = self._chain
        responder = None
        for index, (slave, arrival, _exchange) in enumerate(chain):
            reply = slave.receive_tx(frame, now + arrival)
            if reply is not None and responder is None:
                responder = index
                rx_frame = reply
        if responder is None:
            return None
        # INT piggyback: slaves between the responder and the master set
        # the INT bit while the RX frame passes through them.
        for i in range(responder):
            if chain[i][0].interrupt_pending:
                rx_frame = rx_frame.with_int()
                break
        return rx_frame, chain[responder][2]

    def __repr__(self) -> str:
        return f"TpwireBus({self.name!r}, slaves={len(self.slaves)})"
