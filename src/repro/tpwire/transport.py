"""Byte transport over TpWIRE.

Slaves cannot talk to each other (Sec. 3.1: "Slaves can communicate with
the Master only"), so application data between two slave boards is relayed
by the master: it polls each slave's mailbox, reads outbound link messages
byte-by-byte with READ_DATA frames and writes them into the destination
slave's inbound mailbox with WRITE_DATA frames.  This master-mediated store
and forward path is what gives the tuplespace traffic its large per-byte
frame overhead — the effect the paper measures in Table 4.

Link message format (7 bytes of overhead per message)::

    dest(1) src(1) seq(1) flags(1) length(1) payload(0..MAX) crc16(2)

``flags`` bit 0 marks the final chunk of a segmented application send.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Generator, Optional, Sequence

from repro.des.monitor import RateMonitor
from repro.des.process import Waitable
from repro.tpwire.bus import CycleResult, CycleStatus
from repro.tpwire.commands import Command, RxType
from repro.tpwire.errors import BusError, TpwireError
from repro.tpwire.frames import TxFrame
from repro.tpwire.master import TpwireMaster
from repro.tpwire.registers import Flag, MmioRegion


# -- CRC-16/CCITT over message header+payload ------------------------------

def _crc16_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


#: Byte-indexed lookup table so the per-message CRC is one table hit per
#: byte instead of eight shift/xor steps (every relayed link message is
#: encoded once and decoded twice on its way through the master).
_CRC16_TABLE = _crc16_table()


def crc16_ccitt(data: bytes, initial: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021), as used by the link messages."""
    crc = initial
    table = _CRC16_TABLE
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ table[(crc >> 8) ^ byte]
    return crc


#: Header bytes before the payload.
HEADER_SIZE = 5

#: Trailing CRC bytes.
CRC_SIZE = 2

#: Total per-message overhead.
MESSAGE_OVERHEAD = HEADER_SIZE + CRC_SIZE

#: Largest payload an endpoint puts in one link message.
DEFAULT_MAX_PAYLOAD = 32

#: ``flags`` bit marking the last chunk of an application-level send.
LAST_CHUNK = 0x01


class LinkMessage:
    """One link-layer message relayed by the master."""

    __slots__ = ("dest", "src", "seq", "flags", "payload")

    def __init__(self, dest: int, src: int, seq: int, flags: int, payload: bytes):
        if not 0 <= dest <= 0xFF or not 0 <= src <= 0xFF:
            raise TpwireError("dest/src must be single bytes")
        if not 0 <= seq <= 0xFF or not 0 <= flags <= 0xFF:
            raise TpwireError("seq/flags must be single bytes")
        if len(payload) > 0xFF:
            raise TpwireError(f"payload too long: {len(payload)}")
        self.dest = dest
        self.src = src
        self.seq = seq
        self.flags = flags
        self.payload = bytes(payload)

    @property
    def is_last_chunk(self) -> bool:
        return bool(self.flags & LAST_CHUNK)

    @property
    def wire_size(self) -> int:
        return MESSAGE_OVERHEAD + len(self.payload)

    def encode(self) -> bytes:
        header = bytes(
            [self.dest, self.src, self.seq, self.flags, len(self.payload)]
        )
        body = header + self.payload
        crc = crc16_ccitt(body)
        return body + bytes([crc >> 8, crc & 0xFF])

    @classmethod
    def decode(cls, wire: bytes) -> "LinkMessage":
        if len(wire) < MESSAGE_OVERHEAD:
            raise TpwireError(f"message too short: {len(wire)} bytes")
        dest, src, seq, flags, length = wire[:HEADER_SIZE]
        expected = MESSAGE_OVERHEAD + length
        if len(wire) != expected:
            raise TpwireError(
                f"message length mismatch: header says {expected}, "
                f"got {len(wire)}"
            )
        payload = wire[HEADER_SIZE : HEADER_SIZE + length]
        crc = (wire[-2] << 8) | wire[-1]
        if crc16_ccitt(wire[:-CRC_SIZE]) != crc:
            raise TpwireError("link message CRC-16 mismatch")
        return cls(dest, src, seq, flags, payload)

    def __repr__(self) -> str:
        return (
            f"LinkMessage({self.src}->{self.dest} seq={self.seq} "
            f"len={len(self.payload)})"
        )


class MailboxDevice:
    """Memory-mapped mailbox peripheral on a slave.

    MMIO layout (all *sticky* — the address pointer does not advance, so a
    burst of READ_DATA/WRITE_DATA frames streams bytes through one
    register):

    ========  ====  =======================================================
    OUT_COUNT 0xF0  (r) bytes still queued outbound (clamped to 255)
    OUT_DATA  0xF1  (r) pop the next outbound byte
    IN_DATA   0xF2  (w) push one inbound byte (reassembled into messages)
    IN_STATUS 0xF3  (r) bit0 set when the inbound buffer is full
    ========  ====  =======================================================
    """

    OUT_COUNT = 0xF0
    OUT_DATA = 0xF1
    IN_DATA = 0xF2
    IN_STATUS = 0xF3
    #: repeat register: the last byte popped from OUT_DATA.  Reading
    #: OUT_DATA is destructive, so a master whose RX frame was garbled
    #: recovers the byte here instead of popping the next one.
    OUT_LAST = 0xF4

    #: buffer sizes in bytes, each way
    out_capacity = 65536
    in_capacity = 65536

    def __init__(self):
        self._outbound: deque[int] = deque()
        self._last_out = 0
        self._inbound = bytearray()
        self._slave = None
        self.on_message: Optional[Callable[[LinkMessage], None]] = None
        self.delivered_messages = 0
        self.corrupt_inbound = 0
        self.rejected_sends = 0

    # -- installation -----------------------------------------------------

    def install(self, slave) -> None:
        self._slave = slave
        regs = slave.registers
        regs.register_mmio(MmioRegion(
            self.OUT_COUNT, 1, read=self._read_out_count,
            name="mailbox.out_count", sticky=True,
        ))
        regs.register_mmio(MmioRegion(
            self.OUT_DATA, 1, read=self._read_out_data,
            name="mailbox.out_data", sticky=True,
        ))
        regs.register_mmio(MmioRegion(
            self.IN_DATA, 1, write=self._write_in_data,
            name="mailbox.in_data", sticky=True,
        ))
        regs.register_mmio(MmioRegion(
            self.IN_STATUS, 1, read=self._read_in_status,
            name="mailbox.in_status", sticky=True,
        ))
        regs.register_mmio(MmioRegion(
            self.OUT_LAST, 1, read=lambda _off: self._last_out,
            name="mailbox.out_last", sticky=True,
        ))

    def on_reset(self) -> None:
        """Slave reset wiped the FLAGS register: re-assert mailbox state."""
        self._update_flags()

    # -- application side (the slave's own firmware) ------------------------

    def enqueue_message(self, message: LinkMessage) -> bool:
        """Queue an outbound message; ``False`` when the outbox is full."""
        wire = message.encode()
        if len(self._outbound) + len(wire) > self.out_capacity:
            self.rejected_sends += 1
            return False
        self._outbound.extend(wire)
        self._update_flags()
        return True

    @property
    def outbound_bytes(self) -> int:
        return len(self._outbound)

    # -- MMIO handlers (the master's view) -------------------------------------

    def _read_out_count(self, _offset: int) -> int:
        return min(len(self._outbound), 0xFF)

    def _read_out_data(self, _offset: int) -> int:
        if not self._outbound:
            raise TpwireError("mailbox outbound underrun")
        value = self._outbound.popleft()
        self._last_out = value
        self._update_flags()
        return value

    def _write_in_data(self, _offset: int, value: int) -> None:
        if len(self._inbound) >= self.in_capacity:
            raise TpwireError("mailbox inbound overrun")
        self._inbound.append(value)
        self._try_deliver()
        self._update_flags()

    def _read_in_status(self, _offset: int) -> int:
        return 1 if len(self._inbound) >= self.in_capacity else 0

    # -- reassembly -----------------------------------------------------------

    def _try_deliver(self) -> None:
        """Deliver every complete message at the head of the inbound buffer."""
        while True:
            if len(self._inbound) < HEADER_SIZE:
                return
            length = self._inbound[4]
            total = MESSAGE_OVERHEAD + length
            if len(self._inbound) < total:
                return
            wire = bytes(self._inbound[:total])
            del self._inbound[:total]
            try:
                message = LinkMessage.decode(wire)
            except TpwireError:
                self.corrupt_inbound += 1
                continue
            self.delivered_messages += 1
            if self.on_message is not None:
                self.on_message(message)

    #: FLAGS bits the mailbox owns, refreshed together after every byte.
    _FLAG_MASK = int(Flag.OUT_READY | Flag.INT_PENDING | Flag.IN_FULL)
    _FLAG_OUT = int(Flag.OUT_READY | Flag.INT_PENDING)
    _FLAG_IN_FULL = int(Flag.IN_FULL)

    def _update_flags(self) -> None:
        if self._slave is None:
            return
        value = self._FLAG_OUT if self._outbound else 0
        if len(self._inbound) >= self.in_capacity:
            value |= self._FLAG_IN_FULL
        self._slave.registers.set_flags_masked(self._FLAG_MASK, value)


class TransportFabric:
    """Shared bookkeeping of all endpoints on one logical transport.

    Holds the endpoint registry and the side table associating in-flight
    application sends with their context objects (e.g. the
    :class:`~repro.net.packet.Packet` a traffic generator produced), so the
    receiving endpoint can hand the original object to its application.
    """

    def __init__(self):
        self.endpoints: dict[int, "TransportEndpoint"] = {}
        self.contexts: dict[tuple[int, int], object] = {}

    def register(self, endpoint: "TransportEndpoint") -> None:
        if endpoint.node_id in self.endpoints:
            raise TpwireError(
                f"endpoint for node {endpoint.node_id} already registered"
            )
        self.endpoints[endpoint.node_id] = endpoint


class TransportEndpoint:
    """Application-level byte transport for one slave board.

    ``send`` segments data into link messages and queues them in the
    slave's mailbox; the master relays them; the destination endpoint
    reassembles and invokes ``on_data(src_id, data, context)``.
    """

    max_payload = DEFAULT_MAX_PAYLOAD

    def __init__(
        self,
        sim,
        fabric: TransportFabric,
        mailbox: MailboxDevice,
        node_id: int,
    ):
        self.sim = sim
        self.fabric = fabric
        self.mailbox = mailbox
        self.node_id = node_id
        self._seq = 0
        self._rx_buffers: dict[int, bytearray] = {}
        self.on_data: Optional[Callable[[int, bytes, object], None]] = None
        self.sent_bytes = 0
        self.received_bytes = 0
        fabric.register(self)
        mailbox.on_message = self._on_link_message

    def _next_seq(self) -> int:
        self._seq = (self._seq + 1) & 0xFF
        return self._seq

    # -- sending ------------------------------------------------------------

    def send(self, dest_id: int, data: bytes, context: object = None) -> bool:
        """Queue ``data`` for ``dest_id``; ``False`` if the outbox is full.

        A rejected send queues nothing: a stranded prefix would be glued
        onto the next message by the receiver's reassembly buffer.
        """
        if not data:
            raise TpwireError("cannot send an empty payload")
        mailbox = self.mailbox
        if (mailbox.outbound_bytes + self.wire_size_of(len(data))
                > mailbox.out_capacity):
            mailbox.rejected_sends += 1
            return False
        chunks = [
            data[i : i + self.max_payload]
            for i in range(0, len(data), self.max_payload)
        ]
        for index, chunk in enumerate(chunks):
            last = index == len(chunks) - 1
            seq = self._next_seq()
            message = LinkMessage(
                dest_id, self.node_id, seq,
                LAST_CHUNK if last else 0, chunk,
            )
            if not self.mailbox.enqueue_message(message):
                return False
            if last and context is not None:
                self.fabric.contexts[(self.node_id, seq)] = context
        self.sent_bytes += len(data)
        return True

    def wire_size_of(self, data_len: int) -> int:
        """Bytes that actually cross the bus for an application payload."""
        full, rest = divmod(data_len, self.max_payload)
        chunks = full + (1 if rest else 0)
        return data_len + chunks * MESSAGE_OVERHEAD

    # -- receiving -----------------------------------------------------------

    def _on_link_message(self, message: LinkMessage) -> None:
        buffer = self._rx_buffers.setdefault(message.src, bytearray())
        buffer.extend(message.payload)
        if not message.is_last_chunk:
            return
        data = bytes(buffer)
        self._rx_buffers[message.src] = bytearray()
        self.received_bytes += len(data)
        context = self.fabric.contexts.pop(
            (message.src, message.seq), None
        )
        if self.on_data is not None:
            self.on_data(message.src, data, context)


class PollStrategy(enum.Enum):
    """How the master's firmware discovers pending mailbox traffic."""

    #: Visit every slave's flags each round (simple, deterministic).
    ROUND_ROBIN = "round-robin"
    #: Poll only the deepest slave when idle: its RX frame passes through
    #: the whole chain, so the INT bit aggregates every slave's pending
    #: interrupt (Sec. 3.1); scan individual flags only when INT is set.
    INTERRUPT_SCAN = "interrupt-scan"


class MasterPoller:
    """The master's firmware loop: poll mailboxes and relay messages.

    Each visit reads a slave's flags (one SELECT + READ_FLAGS pair of
    cycles) and, when the OUT_READY flag is set, relays up to
    ``max_messages_per_visit`` link messages to their destination
    mailboxes.  The whole visit holds the master's operation lock so
    selection state stays coherent.

    Two discovery strategies (ablated in the benchmark suite): plain
    round-robin, and the interrupt-scan optimisation built on the INT
    piggyback bit of the RX frames.
    """

    def __init__(
        self,
        sim,
        master: TpwireMaster,
        fabric: TransportFabric,
        slave_ids: list[int],
        max_messages_per_visit: int = 4,
        idle_delay: float = 0.0,
        strategy: PollStrategy = PollStrategy.ROUND_ROBIN,
        use_dma: bool = False,
    ):
        if not slave_ids:
            raise TpwireError("poller needs at least one slave id")
        self.sim = sim
        self.master = master
        self.fabric = fabric
        self.slave_ids = list(slave_ids)
        self.max_messages_per_visit = max_messages_per_visit
        self.idle_delay = idle_delay
        self.strategy = strategy
        #: deliver message bytes with DMA write bursts instead of
        #: acknowledged per-byte writes (the Sec. 3.1 DMA counter).
        self.use_dma = use_dma
        self.running = False
        self._process = None
        self.relayed_messages = 0
        self.relayed_bytes = 0
        self.dropped_messages = 0
        self.bus_errors = 0
        self.idle_polls = 0
        self.sentinel_polls = 0
        #: bytes rescued from the OUT_LAST repeat register after a
        #: garbled reply to a destructive FIFO pop
        self.recovered_bytes = 0
        #: inbox writes whose acknowledgement was garbled and which were
        #: therefore treated as delivered rather than resent
        self.optimistic_acks = 0
        self.relay_rate = RateMonitor(sim, name="poller.relay")

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        body = (
            self._run_interrupt_scan()
            if self.strategy is PollStrategy.INTERRUPT_SCAN
            else self._run_round_robin()
        )
        self._process = self.sim.spawn(body, name="master-poller")

    def stop(self) -> None:
        self.running = False

    # -- round-robin loop --------------------------------------------------------

    def _run_round_robin(self) -> Generator:
        while self.running:
            serviced_any = yield from self._scan_all()
            if not serviced_any and self.idle_delay > 0:
                yield self.sim.timeout(self.idle_delay)

    def _scan_all(self) -> Generator:
        """Visit every slave once; returns True if anything was relayed."""
        serviced_any = False
        for slave_id in self.slave_ids:
            if not self.running:
                return serviced_any
            try:
                serviced = yield self.master.run_op(
                    self._visit(slave_id), name=f"visit{slave_id}"
                )
            except BusError:
                self.bus_errors += 1
                self.master.invalidate_selection()
                continue
            if serviced:
                serviced_any = True
            else:
                self.idle_polls += 1
        return serviced_any

    # -- interrupt-scan loop --------------------------------------------------------

    def _run_interrupt_scan(self) -> Generator:
        deepest = self.slave_ids[-1]
        while self.running:
            try:
                rx = yield self.master.run_op(
                    self.master.op_poll(deepest), name="sentinel-poll"
                )
            except BusError:
                self.bus_errors += 1
                self.master.invalidate_selection()
                continue
            self.sentinel_polls += 1
            if rx is not None and rx.int_pending:
                # Someone along the chain has pending traffic: drain the
                # mailboxes until a full scan comes back clean.
                while self.running:
                    serviced_any = yield from self._scan_all()
                    if not serviced_any:
                        break
            elif self.idle_delay > 0:
                yield self.sim.timeout(self.idle_delay)

    def _visit(self, slave_id: int) -> Generator:
        """One polling visit; returns True when messages were relayed."""
        flags = yield from self.master.op_read_flags(slave_id)
        if not flags & Flag.OUT_READY:
            return False
        serviced = 0
        while serviced < self.max_messages_per_visit:
            message = yield from self._read_one_message(slave_id)
            if message is None:
                break
            yield from self._deliver(message)
            serviced += 1
            # Stop early when the outbox drained.
            count = yield from self._read_out_count(slave_id)
            if count == 0:
                break
        return serviced > 0

    def _read_out_count(self, slave_id: int) -> Generator:
        data = yield from self.master.op_read_bytes(
            slave_id, MailboxDevice.OUT_COUNT, 1
        )
        return data[0]

    def _read_one_message(self, slave_id: int) -> Generator:
        """Pull one complete link message out of a slave's outbox."""
        header = yield from self._read_mailbox_bytes(slave_id, HEADER_SIZE)
        length = header[4]
        rest = yield from self._read_mailbox_bytes(slave_id, length + CRC_SIZE)
        wire = bytes(header) + bytes(rest)
        try:
            message = LinkMessage.decode(wire)
        except TpwireError:
            self.dropped_messages += 1
            return None
        return message

    #: bounded resend budget for fault-aware FIFO access
    FIFO_ATTEMPTS = 8

    def _read_mailbox_bytes(self, slave_id: int, count: int) -> Generator:
        """Destructive-FIFO-safe read of ``count`` outbox bytes.

        Popping OUT_DATA is destructive, so a blind retry after a garbled
        reply would skip a byte.  Instead: a TIMEOUT (the slave never saw
        the frame) is resent; a CRC_ERROR (the slave popped the byte but
        the reply was lost) ends the transfer early, and the byte is
        recovered from the OUT_LAST repeat register.
        """
        master = self.master
        yield from master.op_select(slave_id)
        yield from master.op_set_pointer(MailboxDevice.OUT_DATA)
        out = b""
        while len(out) < count:
            out += yield _FifoTransfer(
                self, slave_id, (_READ_FRAME,) * (count - len(out))
            )
            if len(out) < count:
                self.recovered_bytes += 1
                out += yield from master.op_read_bytes(
                    slave_id, MailboxDevice.OUT_LAST, 1
                )
                yield from master.op_set_pointer(MailboxDevice.OUT_DATA)
        return out

    def _write_mailbox_bytes(self, dest: int, data: bytes) -> Generator:
        """Duplicate-safe write into a destination inbox FIFO.

        Writing IN_DATA is not idempotent, so a blind retry after a
        garbled acknowledgement would duplicate the byte.  A CRC_ERROR
        therefore counts as delivered; only TIMEOUTs are resent.
        """
        yield from self.master.op_select(dest)
        yield from self.master.op_set_pointer(MailboxDevice.IN_DATA)
        yield _FifoTransfer(self, dest, [_WRITE_FRAMES[value] for value in data])

    def _deliver(self, message: LinkMessage) -> Generator:
        """Write a message into the destination slave's inbound mailbox."""
        endpoint = self.fabric.endpoints.get(message.dest)
        if endpoint is None:
            self.dropped_messages += 1
            return
        wire = message.encode()
        for offset in range(0, len(wire), 255):
            chunk = wire[offset : offset + 255]
            if self.use_dma and len(chunk) >= 4:
                yield from self.master.op_dma_write_bytes(
                    message.dest, MailboxDevice.IN_DATA, chunk
                )
            else:
                yield from self._write_mailbox_bytes(message.dest, chunk)
        self.relayed_messages += 1
        self.relayed_bytes += len(message.payload)
        self.relay_rate.tick(len(message.payload))


#: Read once: an enum member looked up on its class costs about ten
#: times a module global, and every FIFO cycle checks its reply type.
_ERROR_REPLY = RxType.ERROR
#: The frame that pops OUT_DATA, and the frame that pushes each byte value.
_READ_FRAME = TxFrame.of(Command.READ_DATA, 0)
_WRITE_FRAMES = [TxFrame.of(Command.WRITE_DATA, value) for value in range(256)]


class _FifoTransfer(Waitable):
    """One burst of single-cycle accesses to a sticky FIFO register,
    each cycle issued from the previous cycle's completion.

    The poller yields once per burst, not once per byte, so a mailbox
    byte costs no waitable and no resumption of the visit's ``yield
    from`` chain.  Each next cycle is queued by ``execute_cb`` from
    inside the previous cycle's ``on_result``, while the bus is still
    busy, so the bus starts it at the same instant with no event in
    between.  The destructive-FIFO rules:

    * every byte has :attr:`MasterPoller.FIFO_ATTEMPTS` cycles; a
      TIMEOUT (the slave never executed the frame) resends the same
      frame, and running out of attempts fails with :class:`BusError`;
    * a write whose acknowledgement is garbled (CRC_ERROR) was executed,
      so it counts as delivered (``optimistic_acks``);
    * a read whose reply is garbled popped a byte that is now lost from
      OUT_DATA: the transfer succeeds early with the bytes read so far,
      and the poller recovers the byte from OUT_LAST;
    * an ERROR reply (a pop from an empty outbox, a push into a full
      inbox) moved no byte, and its DATA is the slave's status byte, not
      mailbox data: the transfer fails with :class:`BusError`.

    Succeeds with the bytes read (``b""`` for writes).  Every cycle is
    one master transaction.
    """

    def __init__(
        self, poller: MasterPoller, node_id: int, frames: Sequence[TxFrame]
    ) -> None:
        super().__init__(poller.sim)
        self._poller = poller
        self._node_id = node_id
        self._frames = frames
        self._reading = frames[0] is _READ_FRAME
        self._out = bytearray()
        self._index = 0
        self._attempt = 0
        self._issue()

    def _issue(self) -> None:
        master = self._poller.master
        master.transactions += 1
        master.bus.execute_cb(self._frames[self._index], True, self._on_result)

    def _on_result(self, result: CycleResult) -> None:
        status = result.status
        if status is CycleStatus.OK:
            rx = result.rx
            if rx.rtype is _ERROR_REPLY:
                self._poller.master.errors_signaled += 1
                direction = "read from" if self._reading else "write to"
                self._fail_or_raise(BusError(
                    f"mailbox {direction} node {self._node_id} rejected "
                    f"(status {rx.data:#04x})"
                ))
                return
            if self._reading:
                self._out.append(rx.data)
        elif status is CycleStatus.CRC_ERROR:
            if self._reading:
                self.succeed(bytes(self._out))
                return
            self._poller.optimistic_acks += 1
        else:
            # TIMEOUT: the frame never executed; resend it.
            self._attempt += 1
            if self._attempt < MasterPoller.FIFO_ATTEMPTS:
                self._issue()
                return
            direction = "read from" if self._reading else "write to"
            self._fail_or_raise(BusError(
                f"mailbox {direction} node {self._node_id} failed after "
                f"{MasterPoller.FIFO_ATTEMPTS} attempts"
            ))
            return
        self._index += 1
        if self._index == len(self._frames):
            self.succeed(bytes(self._out))
            return
        self._attempt = 0
        self._issue()
