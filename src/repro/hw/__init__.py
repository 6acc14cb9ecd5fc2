"""SystemC-analog hardware modelling kernel and the bit-level TpWIRE PHY.

The paper's co-simulation uses SystemC for the hardware side: two SystemC
bridge nodes (SC1/SC2) and, implicitly, the timing-exact behaviour of the
physical TpICU/SCM bus that the NS-2 model is validated against (Table 3).

This package provides:

* a delta-cycle simulation kernel (:class:`~repro.hw.kernel.HwKernel`)
  with SystemC's evaluate/update semantics, riding the same
  :class:`~repro.des.Simulator` timeline as the network models so both
  worlds co-simulate natively;
* modules with thread processes, and signals
  (:mod:`repro.hw.module`, :mod:`repro.hw.signal`);
* a bit-level TpWIRE PHY (:mod:`repro.hw.tpwire_phy`) — every start bit,
  data bit and CRC bit is serialised on a signal, with per-frame master
  firmware overhead — standing in for the physical bus as the reference
  model of the Table 3 validation;
* the shared-memory channel and SC1/SC2 bridges used by the paper's
  client/server co-simulation architecture (Figure 5).
"""

from repro.hw.kernel import HwKernel
from repro.hw.signal import Signal, wait_change, wait_negedge, wait_time
from repro.hw.module import HwModule
from repro.hw.shared_memory import SharedMemoryChannel
from repro.hw.tpwire_phy import BitLevelTpwireBus, PhyTiming
from repro.hw.bridge import ClientBridge, ServerBridge

__all__ = [
    "HwKernel",
    "Signal",
    "wait_change",
    "wait_negedge",
    "wait_time",
    "HwModule",
    "SharedMemoryChannel",
    "BitLevelTpwireBus",
    "PhyTiming",
    "ClientBridge",
    "ServerBridge",
]
