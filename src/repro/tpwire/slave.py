"""TpWIRE slave protocol state machine.

A slave receives every TX frame travelling down the daisy chain (which
feeds its reset watchdog), executes the command when it is the selected
node, and answers with an RX frame.  The broadcast node (id 127) makes all
slaves execute without replying (Sec. 3.1).

The reset watchdog is modelled lazily: on each received frame the slave
counts the deadlines of 2048 bit periods that passed since the last valid
TX frame; it self-reset at each of them, and a frame that arrives inside
the 33-bit-period reset pulse goes unanswered.  A silent slave therefore
resets once every ``reset_timeout + reset_active``.
"""

from __future__ import annotations

from typing import Optional

from repro.tpwire.commands import (
    AddressSpace,
    BROADCAST_NODE_ID,
    Command,
    RxType,
    SysCommand,
    split_address,
    status_byte,
)
from repro.tpwire.errors import TpwireError
from repro.tpwire.frames import RxFrame, TxFrame
from repro.tpwire.registers import Flag, SlaveRegisterFile, SystemRegister
from repro.tpwire.timing import BusTiming

_FLAGS_ADDRESS = int(SystemRegister.FLAGS)
#: The INT bit as a plain int, read straight from the FLAGS register on
#: every reply; it is bit 0, so the masked value is also an index.
_INT_PENDING = int(Flag.INT_PENDING)


class TpwireSlave:
    """One slave node: register file, selection state, reset watchdog."""

    def __init__(
        self,
        sim,
        node_id: int,
        timing: BusTiming,
        memory_size: int = 256,
        name: Optional[str] = None,
        obs=None,
    ):
        if not 0 <= node_id < BROADCAST_NODE_ID:
            raise TpwireError(
                f"slave node id must be 0..{BROADCAST_NODE_ID - 1}, "
                f"got {node_id}"
            )
        self.node_id = node_id
        self.timing = timing
        self.name = name or f"slave{node_id}"
        self.obs = obs
        if obs is not None:
            obs.metrics.attach(f"{self.name}.resets", lambda: self.resets)
        self.registers = SlaveRegisterFile(memory_size)
        #: Address space selected by the last matching SELECT, or ``None``.
        self.selected_space: Optional[AddressSpace] = None
        #: True when selection came via the broadcast node: the slave
        #: executes commands but never replies (Sec. 3.1).
        self.broadcast_selected = False
        #: The watchdog starts at construction; from then on the slave
        #: keeps no clock of its own and takes time only from
        #: :meth:`receive_tx` and :meth:`power_on`.
        self._last_valid_tx: float = sim.now
        self._reset_until: float = -1.0
        #: Fail-stop switch: a powered-off slave neither receives nor
        #: answers frames (its master sees pure timeouts).  Restoring
        #: power performs a cold reset, exactly like a physical brown-out.
        self.powered = True
        self.resets = 0
        self.executed_frames = 0
        #: bytes left in an armed DMA write burst (0 = no burst active)
        self.dma_write_remaining = 0
        self._devices: list = []
        self._ack_frames = (
            RxFrame.of(RxType.ACK, status_byte(node_id, False), False),
            RxFrame.of(RxType.ACK, status_byte(node_id, True), True),
        )

    # -- device attachment ---------------------------------------------------

    def attach_device(self, device) -> None:
        """Attach a peripheral; it installs MMIO handlers on our registers."""
        device.install(self)
        self._devices.append(device)

    @property
    def devices(self) -> list:
        return list(self._devices)

    # -- interrupts -----------------------------------------------------------

    @property
    def interrupt_pending(self) -> bool:
        return (self.registers.system[_FLAGS_ADDRESS] & _INT_PENDING) != 0

    def raise_interrupt(self) -> None:
        self.registers.set_flag(Flag.INT_PENDING, True)

    def clear_interrupt(self) -> None:
        self.registers.set_flag(Flag.INT_PENDING, False)

    # -- reset watchdog ---------------------------------------------------------

    def _perform_reset(self, at: float, reason: str = "command") -> None:
        self.registers.reset()
        self.selected_space = None
        self.dma_write_remaining = 0
        self._reset_until = at + self.timing.reset_active
        self.resets += 1
        if self.obs is not None:
            # ``at`` is the reset's effective instant: a lazily-serviced
            # watchdog reset happened at its deadline, not at the frame
            # arrival that surfaced it.
            self.obs.tracer.event(
                "slave", "reset", time=at,
                node=self.node_id, reason=reason,
            )
        # The watchdog restarts once reset releases.
        self._last_valid_tx = self._reset_until
        # Peripherals re-assert their state (e.g. the mailbox re-raises
        # OUT_READY for traffic queued before the reset).
        for device in self._devices:
            handler = getattr(device, "on_reset", None)
            if handler is not None:
                handler()

    # -- frame handling ------------------------------------------------------------

    def power_off(self) -> None:
        """Fail-stop the slave: it goes dark until :meth:`power_on`."""
        self.powered = False

    def power_on(self, now: float) -> None:
        """Restore power; the slave cold-resets at ``now``."""
        if not self.powered:
            self.powered = True
            self._perform_reset(now, reason="power-on")

    def receive_tx(self, frame: TxFrame, now: float) -> Optional[RxFrame]:
        """A valid TX frame reached this slave at ``now``.

        Both bus models call this once per slave per frame.  Returns the
        RX frame to send back, or ``None`` when the slave does not reply
        (powered off, in a reset pulse, not selected, or a broadcast).
        """
        if not self.powered:
            return None
        # Every deadline the line left unfed is one self-reset at that
        # deadline; each reset re-arms the watchdog when its pulse ends.
        reset_timeout = self.timing.reset_timeout
        deadline = self._last_valid_tx + reset_timeout
        while now > deadline:
            self._perform_reset(deadline, reason="watchdog")
            deadline = self._last_valid_tx + reset_timeout
        if now < self._reset_until:
            return None
        self._last_valid_tx = now
        if frame.cmd is Command.SELECT:
            return self._execute_select(frame)
        if self.selected_space is None:
            return None
        self.executed_frames += 1
        reply = self._execute_selected(frame, now)
        if self.broadcast_selected:
            return None
        return reply

    # -- command implementations -----------------------------------------------------

    def _execute_select(self, frame: TxFrame) -> Optional[RxFrame]:
        node_id, space = split_address(frame.data)
        if node_id == BROADCAST_NODE_ID:
            # Broadcast select: everyone selected, nobody replies.
            self.selected_space = space
            self.broadcast_selected = True
            return None
        if node_id == self.node_id:
            self.selected_space = space
            self.broadcast_selected = False
            return self._ack()
        self.selected_space = None
        self.broadcast_selected = False
        return None

    def _execute_selected(self, frame: TxFrame, now: float) -> RxFrame:
        space = self.selected_space
        regs = self.registers
        cmd = frame.cmd
        rx_of = RxFrame.of
        try:
            if cmd is Command.WRITE_ADDR:
                regs.set_pointer(frame.data)
                return self._ack()
            if cmd is Command.WRITE_DATA:
                if space is AddressSpace.MEMORY:
                    regs.write_at_pointer(frame.data)
                else:
                    regs.write_system(regs.pointer, frame.data)
                    regs.set_pointer((regs.pointer + 1) % 256)
                if self.dma_write_remaining > 0:
                    # Burst mode: stay silent until the final byte lands.
                    self.dma_write_remaining -= 1
                    if self.dma_write_remaining > 0:
                        return None
                return self._ack()
            if cmd is Command.READ_DATA:
                if space is AddressSpace.MEMORY:
                    value = regs.read_at_pointer()
                else:
                    value = regs.read_system(regs.pointer)
                    regs.set_pointer((regs.pointer + 1) % 256)
                return rx_of(
                    RxType.DATA, value,
                    (regs.system[_FLAGS_ADDRESS] & _INT_PENDING) != 0,
                )
            if cmd is Command.READ_FLAGS:
                value = regs.read_system(_FLAGS_ADDRESS)
                regs.set_flag(Flag.RESET_OCCURRED, False)
                return rx_of(
                    RxType.FLAGS, value,
                    (regs.system[_FLAGS_ADDRESS] & _INT_PENDING) != 0,
                )
            if cmd is Command.SYS_CMD:
                regs.write_system(0, frame.data)  # COMMAND register
                if frame.data == int(SysCommand.DMA_WRITE):
                    self.dma_write_remaining = regs.system[
                        SystemRegister.DMA_COUNTER
                    ]
                for device in self._devices:
                    handler = getattr(device, "on_sys_command", None)
                    if handler is not None:
                        handler(frame.data)
                return self._ack()
            if cmd is Command.POLL:
                return self._ack()
            if cmd is Command.RESET:
                self._perform_reset(now)
                return None
        except TpwireError:
            regs.set_flag(Flag.ERROR, True)
            return RxFrame(
                RxType.ERROR,
                status_byte(self.node_id, self.interrupt_pending),
                self.interrupt_pending,
            )
        # Unknown command value (cannot happen with the 3-bit enum, but be
        # explicit rather than silent).
        return RxFrame(
            RxType.ERROR,
            status_byte(self.node_id, self.interrupt_pending),
            self.interrupt_pending,
        )

    def _ack(self) -> RxFrame:
        # Only two ACK frames exist per node (INT bit clear/set); both are
        # interned once in __init__ so the reply path allocates nothing.
        return self._ack_frames[
            self.registers.system[_FLAGS_ADDRESS] & _INT_PENDING
        ]

    def __repr__(self) -> str:
        sel = (
            self.selected_space.name if self.selected_space is not None else "-"
        )
        return f"TpwireSlave(id={self.node_id}, selected={sel})"
