"""TpWIRE frame encoding/decoding.

Frame layouts (Tables 1 and 2 of the paper), 16 bits each, MSB first:

========  ===========================================================
TX frame  ``0 | CMD[2:0] | DATA[7:0] | CRC[3:0]``
RX frame  ``0 | INT | TYPE[1:0] | DATA[7:0] | CRC[3:0]``
========  ===========================================================

The start bit is always 0.  The TX CRC covers CMD+DATA (11 bits); the RX
CRC covers TYPE+DATA (10 bits) — the INT bit is *excluded* because slaves
along the daisy chain may set it while the frame passes through them
(Sec. 3.1), which must not invalidate the CRC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tpwire.commands import Command, RxType, is_broadcast, split_address
from repro.tpwire.constants import FRAME_BITS
from repro.tpwire.crc import crc4
from repro.tpwire.errors import CrcMismatch, FrameError


def _to_bits(value: int, width: int) -> list[int]:
    return [(value >> i) & 1 for i in range(width - 1, -1, -1)]


def _from_bits(bits: list[int]) -> int:
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return value


#: Intern caches for the ``of()`` constructors.  Bounded by the frame
#: value spaces (8 commands x 256 bytes; 4 types x 256 bytes x 2).
_TX_CACHE: dict = {}
_RX_CACHE: dict = {}


@dataclass(frozen=True)
class TxFrame:
    """Master-to-slave frame."""

    cmd: Command
    data: int

    def __post_init__(self):
        if not 0 <= int(self.cmd) <= 7:
            raise FrameError(f"CMD must fit 3 bits, got {self.cmd}")
        if not 0 <= self.data <= 0xFF:
            raise FrameError(f"DATA must fit 8 bits, got {self.data}")

    @classmethod
    def of(cls, cmd: Command, data: int) -> "TxFrame":
        """Interned constructor: frames are frozen value objects, so hot
        paths (one TX frame per communication cycle) share instances
        instead of re-validating and re-allocating identical frames."""
        key = (cmd, data)
        frame = _TX_CACHE.get(key)
        if frame is None:
            frame = _TX_CACHE[key] = cls(cmd, data)
        return frame

    @property
    def expects_reply(self) -> bool:
        """Whether a slave answers this frame: a RESET and a broadcast
        SELECT execute on the slaves without a reply (Sec. 3.1)."""
        if self.cmd is Command.RESET:
            return False
        if self.cmd is Command.SELECT:
            return not is_broadcast(split_address(self.data)[0])
        return True

    @property
    def crc(self) -> int:
        return crc4((int(self.cmd) << 8) | self.data, 11)

    def encode(self) -> int:
        """The 16-bit word: start(0) CMD DATA CRC."""
        return (int(self.cmd) << 12) | (self.data << 4) | self.crc

    def to_bits(self) -> list[int]:
        return _to_bits(self.encode(), FRAME_BITS)

    @classmethod
    def decode(cls, word: int) -> "TxFrame":
        if not 0 <= word < (1 << FRAME_BITS):
            raise FrameError(f"TX word must be 16 bits, got {word:#x}")
        if word >> 15:
            raise FrameError("TX start bit must be 0")
        cmd = (word >> 12) & 0x7
        data = (word >> 4) & 0xFF
        crc = word & 0xF
        if crc4((cmd << 8) | data, 11) != crc:
            raise CrcMismatch(
                f"TX CRC mismatch: cmd={cmd} data={data:#04x} crc={crc:#x}"
            )
        return cls(Command(cmd), data)

    @classmethod
    def from_bits(cls, bits: list[int]) -> "TxFrame":
        if len(bits) != FRAME_BITS:
            raise FrameError(f"TX frame needs {FRAME_BITS} bits, got {len(bits)}")
        return cls.decode(_from_bits(bits))

    def __str__(self) -> str:
        return f"TX[{self.cmd.name} data={self.data:#04x}]"


@dataclass(frozen=True)
class RxFrame:
    """Slave-to-master frame.

    ``int_pending`` is the INT bit: set when any slave the frame passed
    through (including the originator) has a pending interrupt.
    """

    rtype: RxType
    data: int
    int_pending: bool = False

    def __post_init__(self):
        if not 0 <= int(self.rtype) <= 3:
            raise FrameError(f"TYPE must fit 2 bits, got {self.rtype}")
        if not 0 <= self.data <= 0xFF:
            raise FrameError(f"DATA must fit 8 bits, got {self.data}")

    @classmethod
    def of(cls, rtype: RxType, data: int, int_pending: bool = False) -> "RxFrame":
        """Interned constructor (see :meth:`TxFrame.of`): one RX frame per
        replied cycle makes this the hottest allocation on the slave side,
        and the value space is tiny (type x byte x INT bit)."""
        key = (rtype, data, int_pending)
        frame = _RX_CACHE.get(key)
        if frame is None:
            frame = _RX_CACHE[key] = cls(rtype, data, int_pending)
        return frame

    @property
    def crc(self) -> int:
        # CRC over TYPE+DATA only; INT is mutable in flight.
        return crc4((int(self.rtype) << 8) | self.data, 10)

    def encode(self) -> int:
        """The 16-bit word: start(0) INT TYPE DATA CRC."""
        return (
            (int(self.int_pending) << 14)
            | (int(self.rtype) << 12)
            | (self.data << 4)
            | self.crc
        )

    def to_bits(self) -> list[int]:
        return _to_bits(self.encode(), FRAME_BITS)

    def with_int(self) -> "RxFrame":
        """Copy of this frame with the INT bit set (daisy-chain piggyback)."""
        if self.int_pending:
            return self
        return RxFrame.of(self.rtype, self.data, True)

    @classmethod
    def decode(cls, word: int) -> "RxFrame":
        if not 0 <= word < (1 << FRAME_BITS):
            raise FrameError(f"RX word must be 16 bits, got {word:#x}")
        if word >> 15:
            raise FrameError("RX start bit must be 0")
        int_pending = bool((word >> 14) & 1)
        rtype = (word >> 12) & 0x3
        data = (word >> 4) & 0xFF
        crc = word & 0xF
        if crc4((rtype << 8) | data, 10) != crc:
            raise CrcMismatch(
                f"RX CRC mismatch: type={rtype} data={data:#04x} crc={crc:#x}"
            )
        return cls(RxType(rtype), data, int_pending)

    @classmethod
    def from_bits(cls, bits: list[int]) -> "RxFrame":
        if len(bits) != FRAME_BITS:
            raise FrameError(f"RX frame needs {FRAME_BITS} bits, got {len(bits)}")
        return cls.decode(_from_bits(bits))

    def __str__(self) -> str:
        mark = "!" if self.int_pending else ""
        return f"RX[{self.rtype.name}{mark} data={self.data:#04x}]"
