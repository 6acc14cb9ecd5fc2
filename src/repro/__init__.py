"""Reproduction of *Estimation of Bus Performance for a Tuplespace in an
Embedded Architecture* (Drago, Fummi, Monguzzi, Perbellini, Poncino --
DATE 2003).

The package rebuilds the paper's whole prototyping stack in Python:

================  ===========================================================
``repro.des``     discrete-event kernel (the NS-2 substitute): heap event
                  queue, generator processes, a FIFO lock and a store,
                  RNG streams, monitors
``repro.net``     NS-2-style nodes/links/agents and traffic generators (CBR,
                  Poisson)
``repro.tpwire``  the TpWIRE bus: CRC-4 frames, command set, slave state
                  machines, master with retries, daisy-chain timing, n-wire
                  variants, mailbox byte transport over the master relay
``repro.hw``      SystemC-analog delta-cycle kernel, the bit-level TpWIRE
                  PHY (the hardware reference of Table 3), shared-memory
                  channels and the SC1/SC2 co-simulation bridges
``repro.board``   Theseus board: stack-machine ISS, assembler, gdb-RSP
                  debug stub, firmware programs
``repro.core``    the tuplespace middleware: tuples/entries/templates, the
                  space engine with leases + notify + transactions, service
                  discovery, SpaceServer, RMI-analog proxies, XML-Tuples
                  codec, socket wire protocol, sync and simulated clients,
                  factory-automation agents
``repro.cosim``   experiment assembly: the Figure 6/7 scenarios and the
                  Table 3 calibration
``repro.analysis``  statistics and table rendering for the benchmarks
================  ===========================================================

Quick taste::

    from repro.core import TupleSpace, LindaTuple, TupleTemplate, ANY

    space = TupleSpace()
    space.write(LindaTuple("temperature", "cell-1", 21.5))
    hot = space.take_if_exists(TupleTemplate("temperature", ANY, float))

See ``examples/`` for runnable walkthroughs and ``benchmarks/`` for the
reproduced tables and figures.
"""

__version__ = "1.0.0"

from repro import analysis, board, core, cosim, des, hw, net, tpwire

__all__ = [
    "__version__",
    "analysis",
    "board",
    "core",
    "cosim",
    "des",
    "hw",
    "net",
    "tpwire",
]
