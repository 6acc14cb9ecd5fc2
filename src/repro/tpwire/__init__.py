"""TpWIRE bus model (Theseus Programmable Wires, Section 3 of the paper).

TpWIRE is a daisy-chain master/slave serial bus: one single-ended line, one
Master that initiates every communication cycle, up to 127 Slaves (node ids
0..126) plus the broadcast node 127.  A cycle is a 16-bit TX frame from the
Master followed (except for broadcasts) by a 16-bit RX frame from the
selected Slave; both carry a CRC-4 over the x^4 + x + 1 polynomial.

This package implements the protocol at *packet level* (the NS-2 model of
the paper): frames, the command set, slave register files and state
machines, the master transaction engine with timeout/retry, the daisy-chain
timing model, the n-wire scalability variants, and the byte transport that
the tuplespace middleware rides on.  The timing-exact *bit-level* reference
model (the stand-in for the real TpICU/SCM hardware) lives in
:mod:`repro.hw`.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.tpwire.errors": (
        "TpwireError",
        "FrameError",
        "CrcMismatch",
        "BusTimeout",
        "BusError",
        "SlaveError",
        "NoSuchNode",
    ),
    "repro.tpwire.crc": ("crc4", "CRC4_POLY"),
    "repro.tpwire.commands": (
        "Command",
        "RxType",
        "AddressSpace",
        "BROADCAST_NODE_ID",
        "node_address",
        "split_address",
    ),
    "repro.tpwire.frames": ("TxFrame", "RxFrame"),
    "repro.tpwire.registers": ("SlaveRegisterFile", "SystemRegister", "Flag"),
    "repro.tpwire.timing": ("BusTiming", "WireMode"),
    "repro.tpwire.slave": ("TpwireSlave",),
    "repro.tpwire.master": ("TpwireMaster",),
    "repro.tpwire.bus": ("TpwireBus", "BitErrorModel"),
    "repro.tpwire.nwire": ("ParallelBusGroup", "timing_for"),
    "repro.tpwire.transport": (
        "MailboxDevice",
        "TransportEndpoint",
        "MasterPoller",
        "PollStrategy",
    ),
    "repro.tpwire.spi": ("SpiPeripheral", "TemperatureSensor", "OutputShiftRegister"),
}

__all__ = [
    "TpwireError",
    "FrameError",
    "CrcMismatch",
    "BusTimeout",
    "BusError",
    "SlaveError",
    "NoSuchNode",
    "crc4",
    "CRC4_POLY",
    "Command",
    "RxType",
    "AddressSpace",
    "BROADCAST_NODE_ID",
    "node_address",
    "split_address",
    "TxFrame",
    "RxFrame",
    "SlaveRegisterFile",
    "SystemRegister",
    "Flag",
    "BusTiming",
    "WireMode",
    "TpwireSlave",
    "TpwireMaster",
    "TpwireBus",
    "BitErrorModel",
    "ParallelBusGroup",
    "timing_for",
    "MailboxDevice",
    "TransportEndpoint",
    "MasterPoller",
    "PollStrategy",
    "SpiPeripheral",
    "TemperatureSensor",
    "OutputShiftRegister",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
