"""TpWIRE timing model.

All packet-level durations derive from here.  The base parameters follow
Section 3.1: 16-bit frames, a slave reset timeout of 2048 bit periods and
a reset pulse of 33 bit periods.  The per-hop repeater delay, inter-frame
gap and slave turnaround are configuration knobs (the physical values are
not published); their defaults are small multiples of the bit period.

n-wire scalability (Sec. 3.2) enters through :class:`WireMode`:

* ``SERIAL`` — the deployed 1-wire bus: every frame bit serial on one line.
* ``PARALLEL_DATA`` — one line carries the serial command stream while
  the DATA byte is striped over the remaining ``wires - 1`` lines.  The
  receiver needs the start bit to synchronise, so data lines begin one
  bit period in; the CRC (computed over the data) follows serially once
  both the command bits and the striped data have landed.  A frame
  therefore lasts ``max(lead_bits, 1 + ceil(8/(wires-1))) + crc_bits``
  periods — 13 instead of 16 for the 2-wire case.
* ``PARALLEL_BUS`` — ``wires`` independent 1-wire buses
  (:class:`repro.tpwire.nwire.ParallelBusGroup`); each individual bus uses
  SERIAL timing.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from repro.tpwire.constants import (
    CRC_BITS,
    DATA_BITS,
    FRAME_BITS,
    HEADER_BITS,
    LEAD_BITS,
    RESET_ACTIVE_BITS,
    RESET_TIMEOUT_BITS,
)


class WireMode(enum.Enum):
    SERIAL = "serial"
    PARALLEL_DATA = "parallel-data"
    PARALLEL_BUS = "parallel-bus"


@dataclass(frozen=True)
class BusTiming:
    """Timing parameters of one TpWIRE line group.

    Parameters
    ----------
    bit_rate:
        Line rate in bits/s of each wire.
    wires:
        Number of physical lines (>= 1).
    mode:
        How extra wires are used (see module docstring).  ``SERIAL``
        requires ``wires == 1``.
    gap_bits:
        Idle bit periods the master leaves between communication cycles.
    turnaround_bits:
        Bit periods a slave takes between the end of the TX frame and the
        start of its RX frame (command execution + line turnaround).
    hop_delay_bits:
        Repeater latency a frame accrues at each slave it passes through
        in the daisy chain.

    Derived durations (``bit_period``, ``frame_duration``, ``gap_duration``,
    ``turnaround_duration``, ``reset_timeout``, ``reset_active``,
    ``frame_bits_on_wire``) are computed once in ``__post_init__`` and read
    as plain attributes: the bus derives several of them per frame, and on
    a multi-thousand-frame run re-deriving ``1.0 / bit_rate`` and friends
    on every access is pure overhead.  The per-hop delay/arrival/exchange
    tables grow lazily up to the deepest chain position ever asked for.
    """

    bit_rate: float = 2400.0
    wires: int = 1
    mode: WireMode = WireMode.SERIAL
    gap_bits: int = 4
    turnaround_bits: int = 4
    hop_delay_bits: int = 2

    def __post_init__(self):
        if self.bit_rate <= 0:
            raise ValueError(f"bit rate must be positive, got {self.bit_rate}")
        if self.wires < 1:
            raise ValueError(f"wires must be >= 1, got {self.wires}")
        if self.mode is WireMode.SERIAL and self.wires != 1:
            raise ValueError("SERIAL mode uses exactly one wire")
        if self.mode is WireMode.PARALLEL_DATA and self.wires < 2:
            raise ValueError("PARALLEL_DATA mode needs at least 2 wires")
        if min(self.gap_bits, self.turnaround_bits, self.hop_delay_bits) < 0:
            raise ValueError("bit-period counts must be >= 0")
        # Precomputed scalars (the dataclass is frozen; these are caches,
        # not fields, so equality/repr still follow the declared knobs).
        set_attr = object.__setattr__
        bit_period = 1.0 / self.bit_rate
        set_attr(self, "bit_period", bit_period)
        if self.mode is WireMode.PARALLEL_DATA:
            # Data lines start one bit after the start bit; the CRC goes
            # out serially once command bits and striped data are in.
            data_done = 1 + math.ceil(DATA_BITS / (self.wires - 1))
            frame_bits = max(LEAD_BITS, data_done) + CRC_BITS
        else:
            frame_bits = FRAME_BITS
        set_attr(self, "frame_bits_on_wire", frame_bits)
        set_attr(self, "frame_duration", frame_bits * bit_period)
        set_attr(self, "gap_duration", self.gap_bits * bit_period)
        set_attr(self, "turnaround_duration", self.turnaround_bits * bit_period)
        set_attr(self, "reset_timeout", RESET_TIMEOUT_BITS * bit_period)
        set_attr(self, "reset_active", RESET_ACTIVE_BITS * bit_period)
        # Per-hop tables, indexed by chain depth; hop 0 seeds them.
        set_attr(self, "_hop_delay_table", [0 * self.hop_delay_bits * bit_period])
        set_attr(self, "_tx_arrival_table", [self.frame_duration + self._hop_delay_table[0]])
        one_way = self._tx_arrival_table[0]
        set_attr(
            self,
            "_exchange_table",
            [one_way + self.turnaround_duration + one_way + self.gap_duration],
        )

    def _grow_tables(self, hops: int) -> None:
        """Extend the per-hop tables through depth ``hops``."""
        hop_delay_table = self._hop_delay_table
        tx_arrival_table = self._tx_arrival_table
        exchange_table = self._exchange_table
        for depth in range(len(hop_delay_table), hops + 1):
            delay = depth * self.hop_delay_bits * self.bit_period
            one_way = self.frame_duration + delay
            hop_delay_table.append(delay)
            tx_arrival_table.append(one_way)
            exchange_table.append(
                one_way + self.turnaround_duration + one_way + self.gap_duration
            )

    def hop_delay(self, hops: int) -> float:
        if hops >= len(self._hop_delay_table):
            self._grow_tables(hops)
        return self._hop_delay_table[hops]

    # -- cycle durations ------------------------------------------------------

    def tx_arrival_delay(self, hops: int) -> float:
        """Master TX start -> frame fully received at a slave ``hops`` deep."""
        if hops >= len(self._tx_arrival_table):
            self._grow_tables(hops)
        return self._tx_arrival_table[hops]

    def exchange_duration(self, hops: int) -> float:
        """Full communication cycle with the slave at depth ``hops``:
        TX + turnaround + RX + inter-cycle gap."""
        if hops >= len(self._exchange_table):
            self._grow_tables(hops)
        return self._exchange_table[hops]

    def broadcast_duration(self, chain_length: int) -> float:
        """Broadcast cycle: TX to the end of the chain, no RX (Sec. 3.1)."""
        return (
            self.frame_duration
            + self.hop_delay(chain_length)
            + self.gap_duration
        )

    def response_timeout(self, hops: int, margin: float = 2.0) -> float:
        """How long the master waits for an RX before declaring a timeout."""
        expected = (
            self.frame_duration
            + self.hop_delay(hops)
            + self.turnaround_duration
            + self.frame_duration
            + self.hop_delay(hops)
        )
        return expected * margin

    # -- derived metrics ---------------------------------------------------------

    @property
    def peak_exchanges_per_second(self) -> float:
        """Upper bound on cycles/s (zero-hop slave, back-to-back)."""
        return 1.0 / self.exchange_duration(0)

    def scaled(self, **changes) -> "BusTiming":
        """A copy with the given fields replaced."""
        return replace(self, **changes)
