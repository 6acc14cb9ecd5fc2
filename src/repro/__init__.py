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
                  space engine with leases + notify, service discovery,
                  SpaceServer, XML-Tuples codec, socket wire protocol,
                  sync and simulated clients, factory-automation agents
``repro.cosim``   experiment assembly: the Figure 6/7 scenarios and the
                  Table 3 calibration
``repro.analysis``  statistics and table rendering for the benchmarks
================  ===========================================================

Besides these, ``repro.obs`` (tracing and metrics), ``repro.chaos``
(fault injection) and ``repro.lint`` (the project's static checker).

Every package re-exports its public names through one literal export
table, ``_EXPORTS = {"repro.core.space": ("TupleSpace", ...), ...}``,
and the PEP 562 ``__getattr__``/``__dir__`` that :func:`lazy_exports`
builds from it: a name is imported on its first access, so
``from repro.core import TupleSpace`` loads the space and its own
imports, not the simulator, the PHY or the board.  ``__all__``,
``dir()``, ``import *`` and every import path work as with plain
imports.

Quick taste::

    from repro.core import TupleSpace, LindaTuple, TupleTemplate, ANY

    space = TupleSpace()
    space.write(LindaTuple("temperature", "cell-1", 21.5))
    hot = space.take_if_exists(TupleTemplate("temperature", ANY, float))

See ``examples/`` for runnable walkthroughs and ``benchmarks/`` for the
reproduced tables and figures.
"""

import sys

__version__ = "1.0.0"

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


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` over a package's export table.

    ``table`` maps a module to the names the package takes from it, as
    ``from module import name`` would; a name listed under the package
    itself is its submodule.  A name is imported on its first access and
    then stored in ``namespace`` (the package's globals), so later
    lookups never reach ``__getattr__`` again.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        submodule = module == package
        target = f"{package}.{name}" if submodule else module
        # The import statement's own path, so ``-X importtime`` lists it.
        __import__(target)
        value = sys.modules[target] if submodule else getattr(sys.modules[target], name)
        namespace[name] = value
        return value

    def __dir__():
        return {*namespace, *origin}

    return __getattr__, __dir__


_EXPORTS = {
    "repro": ("analysis", "board", "core", "cosim", "des", "hw", "net", "tpwire"),
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
