"""TpWIRE master: transaction engine with timeout/retry, high-level ops.

Sec. 3.1: "If any Slave responds within an expected time period, or an
error occurs during the receive of TX or RX frames, the Master resends the
TX frame a predetermined number of times before signaling an error."

The master exposes two API levels:

* :meth:`transact` — one command/response cycle with automatic retries;
  returns a waitable that succeeds with the :class:`RxFrame` (or fails
  with :class:`BusError` once retries are exhausted).
* ``op_*`` generator helpers (select / read / write byte sequences) that
  compound multiple cycles.  Compound operations must not interleave —
  they share the selection state — so they run under the master's
  operation lock via :meth:`run_op`::

      payload = yield master.run_op(master.op_read_bytes(node, 0x10, 4))
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.des.process import Waitable
from repro.des.resource import Resource
from repro.tpwire.bus import CycleResult, CycleStatus, TpwireBus
from repro.tpwire.commands import (
    AddressSpace,
    BROADCAST_NODE_ID,
    Command,
    node_address,
)
from repro.tpwire.commands import RxType
from repro.tpwire.errors import BusError, BusTimeout, SlaveError
from repro.tpwire.frames import RxFrame, TxFrame
from repro.tpwire.registers import Flag

#: Read once: an enum member looked up on its class costs about ten
#: times a module global, and every transaction checks its cycle status.
_BROADCAST = CycleStatus.BROADCAST
_OK = CycleStatus.OK
_TIMEOUT = CycleStatus.TIMEOUT
_ERROR_REPLY = RxType.ERROR


class _Transaction(Waitable):
    """One command/response transaction driven by cycle-completion callbacks.

    Replaces the per-transaction generator process :meth:`TpwireMaster.transact`
    used to spawn: chaining on the bus cycle's waitable directly skips a
    :class:`~repro.des.process.Process` allocation and its zero-delay
    start event for every frame pair on the polling hot path, while
    keeping the exact retry/error semantics of the old process body.
    """

    def __init__(self, master: "TpwireMaster", frame: TxFrame, expect_reply: bool):
        super().__init__(master.sim)
        self._master = master
        self._frame = frame
        self._expect_reply = expect_reply
        self._started = master.sim.now
        self._attempt = 0
        master.bus.execute_cb(frame, expect_reply, self._on_result)

    def _on_result(self, result: CycleResult) -> None:
        master = self._master
        status = result.status
        if status is _BROADCAST:
            master._record_txn(self._started)
            self.succeed(None)
            return
        if status is _OK:
            rx = result.rx
            if rx.rtype is _ERROR_REPLY:
                # The slave rejected the command: retrying the same
                # frame cannot help.
                master.errors_signaled += 1
                master._observe_error("slave-error")
                self._fail_or_raise(SlaveError(
                    f"{master.name}: slave rejected {self._frame} "
                    f"(status {rx.data:#04x})"
                ))
                return
            master._record_txn(self._started)
            self.succeed(rx)
            return
        # TIMEOUT or CRC_ERROR: resend until the retry budget runs out.
        self._attempt += 1
        if self._attempt <= master.max_retries:
            master.retries += 1
            if master.obs is not None:
                master.obs.tracer.event(
                    "master", "retry",
                    attempt=self._attempt, status=status.value,
                    cmd=self._frame.cmd.name,
                )
            master.bus.execute_cb(
                self._frame, self._expect_reply, self._on_result
            )
            return
        master.errors_signaled += 1
        master._selected = None  # selection state is now unknown
        master._observe_error(status.value)
        error_class = (
            BusTimeout if status is _TIMEOUT else BusError
        )
        self._fail_or_raise(error_class(
            f"{master.name}: no valid reply to {self._frame} after "
            f"{master.max_retries + 1} attempts (last: {status.value})"
        ))


class TpwireMaster:
    """The bus master; owns one :class:`TpwireBus`."""

    def __init__(
        self,
        sim,
        bus: TpwireBus,
        max_retries: int = 3,
        name: str = "master",
        obs=None,
    ):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.sim = sim
        self.bus = bus
        self.max_retries = max_retries
        self.name = name
        self.lock = Resource(sim, capacity=1)
        # -- statistics
        self.transactions = 0
        self.retries = 0
        self.errors_signaled = 0
        # -- observability (nullable)
        self.obs = obs
        if obs is not None:
            obs.metrics.attach(f"{name}.retries", lambda: self.retries)
            obs.metrics.attach(
                f"{name}.errors_signaled", lambda: self.errors_signaled
            )
            self._txn_seconds = obs.metrics.histogram(f"{name}.transaction_seconds")
        #: Node id the last SELECT addressed (cache to skip redundant selects).
        self._selected: Optional[tuple[int, AddressSpace]] = None

    # -- single-cycle transaction with retries ------------------------------

    def transact(self, frame: TxFrame, expect_reply: bool = True) -> Waitable:
        """Send ``frame``; retry on timeout/CRC error; waitable succeeds
        with the RX frame (or ``None`` for no-reply cycles)."""
        self.transactions += 1
        return _Transaction(self, frame, expect_reply)

    def _record_txn(self, started: float) -> None:
        if self.obs is not None:
            self._txn_seconds.observe(self.sim.now - started)

    def _observe_error(self, reason: str) -> None:
        if self.obs is not None:
            self.obs.tracer.event("master", "error", reason=reason)

    # -- compound operations (generators; run under the lock) ----------------

    def op_select(
        self, node_id: int, space: AddressSpace = AddressSpace.MEMORY
    ) -> Generator:
        """SELECT a node/register set (skipped when already selected)."""
        if self._selected == (node_id, space):
            return None
        frame = TxFrame.of(Command.SELECT, node_address(node_id, space))
        reply = yield self.transact(frame)
        self._selected = (node_id, space)
        return reply

    def op_set_pointer(self, address: int) -> Generator:
        yield self.transact(TxFrame.of(Command.WRITE_ADDR, address & 0xFF))
        return None

    def op_write_bytes(
        self,
        node_id: int,
        address: int,
        data: bytes,
        space: AddressSpace = AddressSpace.MEMORY,
    ) -> Generator:
        """SELECT + WRITE_ADDR + one WRITE_DATA frame per byte."""
        yield from self.op_select(node_id, space)
        yield from self.op_set_pointer(address)
        for value in data:
            yield self.transact(TxFrame.of(Command.WRITE_DATA, value))
        return len(data)

    def op_read_bytes(
        self,
        node_id: int,
        address: int,
        count: int,
        space: AddressSpace = AddressSpace.MEMORY,
    ) -> Generator:
        """SELECT + WRITE_ADDR + one READ_DATA frame per byte."""
        yield from self.op_select(node_id, space)
        yield from self.op_set_pointer(address)
        out = bytearray()
        read_frame = TxFrame.of(Command.READ_DATA, 0)
        for _ in range(count):
            rx: RxFrame = yield self.transact(read_frame)
            out.append(rx.data)
        return bytes(out)

    def op_dma_write_bytes(
        self,
        node_id: int,
        address: int,
        data: bytes,
    ) -> Generator:
        """Burst write using the DMA counter (Sec. 3.1 system registers).

        Arms the slave's DMA write counter, then streams the payload as
        fire-and-forget WRITE_DATA frames; only the final byte is
        acknowledged, halving the per-byte bus time of long writes.  A
        frame lost mid-burst desynchronises the counter, so the final
        frame times out and the whole operation raises
        :class:`~repro.tpwire.errors.BusError` — callers retry the burst.
        """
        if not data:
            raise ValueError("DMA burst needs at least one byte")
        if len(data) > 0xFF:
            raise ValueError(
                f"DMA counter is one byte; burst of {len(data)} too long"
            )
        from repro.tpwire.commands import SysCommand
        from repro.tpwire.registers import SystemRegister

        # Program the DMA counter (system space), then arm the burst and
        # stream into the memory-space destination.
        yield from self.op_select(node_id, AddressSpace.SYSTEM)
        yield from self.op_set_pointer(int(SystemRegister.DMA_COUNTER))
        yield self.transact(TxFrame.of(Command.WRITE_DATA, len(data)))
        yield from self.op_select(node_id, AddressSpace.MEMORY)
        yield from self.op_set_pointer(address)
        yield self.transact(
            TxFrame.of(Command.SYS_CMD, int(SysCommand.DMA_WRITE))
        )
        for value in data[:-1]:
            yield self.transact(
                TxFrame.of(Command.WRITE_DATA, value), expect_reply=False
            )
        # The final byte is acknowledged: it validates the whole burst.
        yield self.transact(TxFrame.of(Command.WRITE_DATA, data[-1]))
        return len(data)

    def op_read_flags(self, node_id: int) -> Generator:
        """SELECT + READ_FLAGS; returns the :class:`Flag` byte."""
        yield from self.op_select(node_id, AddressSpace.MEMORY)
        rx: RxFrame = yield self.transact(TxFrame.of(Command.READ_FLAGS, 0))
        return Flag(rx.data)

    def op_poll(self, node_id: int) -> Generator:
        """SELECT + POLL; returns the raw status RX frame."""
        yield from self.op_select(node_id, AddressSpace.MEMORY)
        rx: RxFrame = yield self.transact(TxFrame.of(Command.POLL, 0))
        return rx

    def op_sys_command(self, node_id: int, command: int) -> Generator:
        yield from self.op_select(node_id, AddressSpace.MEMORY)
        yield self.transact(TxFrame.of(Command.SYS_CMD, command & 0xFF))
        return None

    def op_broadcast_reset(self) -> Generator:
        """Broadcast-select then RESET: every slave resets, nobody replies."""
        yield from self.op_select(BROADCAST_NODE_ID, AddressSpace.MEMORY)
        yield self.transact(TxFrame.of(Command.RESET, 0))
        self._selected = None
        return None

    # -- running compound ops -------------------------------------------------

    def run_op(self, op: Generator, name: str = "op"):
        """Run a compound op under the operation lock; returns its Process."""
        return self.sim.spawn(self._locked(op), name=f"{self.name}.{name}")

    def _locked(self, op: Generator) -> Generator:
        request = self.lock.request()
        yield request
        try:
            result = yield from op
        finally:
            self.lock.release(request)
        return result

    def invalidate_selection(self) -> None:
        """Forget the cached selection (e.g. after an external reset)."""
        self._selected = None

    def __repr__(self) -> str:
        return (
            f"TpwireMaster({self.name!r}, txn={self.transactions}, "
            f"retries={self.retries})"
        )
