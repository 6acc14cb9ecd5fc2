"""Slave register files.

Sec. 3.1: each node exposes two register sets behind its two node
addresses — "the memory and memory mapped I/O register set" and "the
system register set: command, flags, DMA counter and SPI".  This module
models both, with an address pointer that auto-increments on sequential
data accesses (the usual pattern for pointer-based serial buses, and what
makes multi-byte transfers cost one frame per byte rather than three).

Memory-mapped I/O: devices (e.g. the transport mailbox) register read/write
handlers on address ranges of the memory space.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.tpwire.errors import TpwireError


class SystemRegister(enum.IntEnum):
    """Addresses within the system register set."""

    COMMAND = 0x00
    FLAGS = 0x01
    DMA_COUNTER = 0x02
    SPI = 0x03


class Flag(enum.IntFlag):
    """Bits of the FLAGS system register."""

    INT_PENDING = 0x01    #: the slave has a pending interrupt
    OUT_READY = 0x02      #: outbound mailbox has a complete message
    IN_FULL = 0x04        #: inbound mailbox cannot accept a message
    ERROR = 0x08          #: last command was rejected
    RESET_OCCURRED = 0x10  #: the slave reset since flags were last read
    USER0 = 0x20
    USER1 = 0x40
    USER2 = 0x80


#: Plain-int index of FLAGS in the system list (hot: several flag
#: reads/writes per relayed frame go through it).
_FLAGS_INDEX = int(SystemRegister.FLAGS)


class MmioRegion:
    """A handler-backed address window inside the memory space."""

    def __init__(
        self,
        start: int,
        length: int,
        read: Optional[Callable[[int], int]] = None,
        write: Optional[Callable[[int, int], None]] = None,
        name: str = "",
        sticky: bool = False,
    ):
        if start < 0 or length < 1:
            raise ValueError("MMIO region needs start >= 0 and length >= 1")
        self.start = start
        self.length = length
        self.read = read
        self.write = write
        self.name = name
        #: FIFO-style registers: the address pointer does not auto-increment
        #: across them, so repeated READ_DATA/WRITE_DATA frames stream bytes
        #: through a single address (how the mailbox transport works).
        self.sticky = sticky

    def contains(self, address: int) -> bool:
        return self.start <= address < self.start + self.length


class SlaveRegisterFile:
    """Memory + MMIO + system registers of one slave."""

    def __init__(self, memory_size: int = 256):
        if memory_size < 1:
            raise ValueError(f"memory size must be >= 1, got {memory_size}")
        self.memory_size = memory_size
        self.memory = bytearray(memory_size)
        self.pointer = 0
        #: System register values, indexed by :class:`SystemRegister` (an
        #: IntEnum, so plain list indexing).  A list beats a dict here:
        #: the FLAGS byte is touched several times per relayed frame.
        self.system: list[int] = [0] * len(SystemRegister)
        self._mmio: list[MmioRegion] = []
        #: Address -> region map so every memory access resolves its MMIO
        #: region with one dict hit instead of a scan over all regions.
        self._mmio_map: dict[int, MmioRegion] = {}

    # -- MMIO registration -------------------------------------------------

    def register_mmio(self, region: MmioRegion) -> None:
        for existing in self._mmio:
            overlap = (
                region.start < existing.start + existing.length
                and existing.start < region.start + region.length
            )
            if overlap:
                raise TpwireError(
                    f"MMIO region {region.name!r} overlaps {existing.name!r}"
                )
        self._mmio.append(region)
        for address in range(region.start, region.start + region.length):
            self._mmio_map[address] = region

    # -- pointer -------------------------------------------------------------

    def set_pointer(self, address: int) -> None:
        self.pointer = address % 256

    # -- memory-space access ---------------------------------------------------

    def read_memory(self, address: int) -> int:
        region = self._mmio_map.get(address)
        if region is not None:
            if region.read is None:
                raise TpwireError(f"MMIO {region.name!r} is write-only")
            return region.read(address - region.start) & 0xFF
        if address >= self.memory_size:
            raise TpwireError(
                f"memory read at {address:#x} beyond size {self.memory_size}"
            )
        return self.memory[address]

    def write_memory(self, address: int, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise TpwireError(f"byte value out of range: {value}")
        region = self._mmio_map.get(address)
        if region is not None:
            if region.write is None:
                raise TpwireError(f"MMIO {region.name!r} is read-only")
            region.write(address - region.start, value)
            return
        if address >= self.memory_size:
            raise TpwireError(
                f"memory write at {address:#x} beyond size {self.memory_size}"
            )
        self.memory[address] = value

    def read_at_pointer(self) -> int:
        pointer = self.pointer
        region = self._mmio_map.get(pointer)
        if region is not None:
            if region.read is None:
                raise TpwireError(f"MMIO {region.name!r} is write-only")
            value = region.read(pointer - region.start) & 0xFF
            if not region.sticky:
                self.pointer = (pointer + 1) % 256
            return value
        if pointer >= self.memory_size:
            raise TpwireError(
                f"memory read at {pointer:#x} beyond size {self.memory_size}"
            )
        self.pointer = (pointer + 1) % 256
        return self.memory[pointer]

    def write_at_pointer(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise TpwireError(f"byte value out of range: {value}")
        pointer = self.pointer
        region = self._mmio_map.get(pointer)
        if region is not None:
            if region.write is None:
                raise TpwireError(f"MMIO {region.name!r} is read-only")
            region.write(pointer - region.start, value)
            if not region.sticky:
                self.pointer = (pointer + 1) % 256
            return
        if pointer >= self.memory_size:
            raise TpwireError(
                f"memory write at {pointer:#x} beyond size {self.memory_size}"
            )
        self.memory[pointer] = value
        self.pointer = (pointer + 1) % 256

    # -- system-space access ------------------------------------------------

    def read_system(self, address: int) -> int:
        # All four addresses behind the 2-bit decode are valid registers,
        # so the masked index needs no enum round trip.
        return self.system[address & 0x3] & 0xFF

    def write_system(self, address: int, value: int) -> None:
        self.system[address & 0x3] = value & 0xFF

    # -- flags ------------------------------------------------------------------

    @property
    def flags(self) -> Flag:
        return Flag(self.system[_FLAGS_INDEX])

    def set_flag(self, flag: Flag, on: bool = True) -> None:
        if on:
            self.system[_FLAGS_INDEX] |= int(flag)
        else:
            self.system[_FLAGS_INDEX] &= ~int(flag) & 0xFF

    def test_flag(self, flag: Flag) -> bool:
        # int(flag) keeps this in plain-int bitwise land: letting the
        # IntFlag operand drive ``&`` would invoke Flag.__rand__ and
        # allocate a Flag instance per test.
        return bool(self.system[_FLAGS_INDEX] & int(flag))

    def set_flags_masked(self, mask: int, value: int) -> None:
        """Replace the ``mask`` bits of FLAGS with ``value`` in one store.

        Device flag refreshes (the mailbox touches OUT_READY, INT_PENDING
        and IN_FULL after every byte) collapse to a single
        read-modify-write instead of one :meth:`set_flag` per bit.
        """
        self.system[_FLAGS_INDEX] = (
            self.system[_FLAGS_INDEX] & ~mask & 0xFF
        ) | value

    # -- reset ---------------------------------------------------------------

    def reset(self) -> None:
        """State cleared by a slave self-reset (pointer, flags, command)."""
        self.pointer = 0
        self.system[SystemRegister.COMMAND] = 0
        self.system[SystemRegister.DMA_COUNTER] = 0
        self.system[_FLAGS_INDEX] = int(Flag.RESET_OCCURRED)
