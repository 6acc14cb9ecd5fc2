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

from repro import lazy_exports

_EXPORTS = {
    "repro.hw.kernel": ("HwKernel",),
    "repro.hw.signal": ("Signal", "wait_change", "wait_negedge", "wait_time"),
    "repro.hw.module": ("HwModule",),
    "repro.hw.shared_memory": ("SharedMemoryChannel",),
    "repro.hw.tpwire_phy": ("BitLevelTpwireBus", "PhyTiming"),
    "repro.hw.bridge": ("ClientBridge", "ServerBridge"),
}

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

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
