"""Theseus board model: a tiny CPU, its debug stub and its firmware.

The paper's client runs as C++ on an Exor Theseus board, co-simulated
through "an interface based on the remote debugging features of gdb"
(Sec. 4.3) — i.e. the client executes on an instruction-set simulator that
the SC1 bridge controls over gdb's Remote Serial Protocol.

The analog here:

* :mod:`repro.board.cpu` — a deterministic stack-machine ISS with
  memory-mapped I/O ports (console, comm TX/RX);
* :mod:`repro.board.assembler` — a small assembler so firmware is written
  as readable source, not hand-coded tuples;
* :mod:`repro.board.gdb_stub` — an RSP-style debug stub (``$...#xx``
  packet framing, checksums, ``m``/``M``/``g``/``s``/``c`` commands) plus
  a matching client, standing in for gdb's remote protocol;
* :mod:`repro.board.theseus` — the board: CPU clocked in simulation time,
  I/O ports wired to the SC1 bridge's shared-memory channels;
* :mod:`repro.board.firmware` — canned client programs (byte pumps, the
  request/response space client loop).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.board.cpu": ("StackCpu", "CpuError", "Op"),
    "repro.board.errors": ("BoardError", "BridgeNotConnectedError"),
    "repro.board.assembler": ("assemble", "AssemblerError"),
    "repro.board.gdb_stub": ("GdbStub", "GdbClient"),
    "repro.board.theseus": ("TheseusBoard",),
    "repro.board": ("firmware",),
}

__all__ = [
    "StackCpu",
    "BoardError",
    "BridgeNotConnectedError",
    "CpuError",
    "Op",
    "assemble",
    "AssemblerError",
    "GdbStub",
    "GdbClient",
    "TheseusBoard",
    "firmware",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
