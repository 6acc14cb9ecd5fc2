"""When a repeating slave decides the INT bit of a passing reply.

Sec. 3.1: the INT bit is set as an RX frame passes through a slave with a
pending interrupt.  The bit-level repeater samples the reply at the
middle of each bit slot and decides INT at its second sample, from the
interrupt flag at that instant.  Slave 2 (the deeper one) answers a
POLL; slave 1 raises INT at one of three instants measured from the
reply's start edge on its upstream input:

(a) half a bit before the edge reaches slave 1;
(b) one bit after it, between slave 1's first and second sample;
(c) two bits after it, once the second sample has been taken.

The reply carries INT in (a) and (b) and not in (c).  Each case's raise
time, RX word and completion time are pinned by
``tests/golden/phy_int_decision.jsonl``; regenerate with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/hw/test_phy_int_decision.py
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.des import Simulator
from repro.hw import BitLevelTpwireBus, HwKernel, HwModule, PhyTiming
from repro.hw.signal import wait_negedge
from repro.tpwire import BusTiming, Command, TpwireSlave, TxFrame, node_address

GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent / "golden" / "phy_int_decision.jsonl"
)

#: Raise instant relative to the reply's start edge at slave 1, in bits.
CASES = {"before_edge": -0.5, "between_samples": 1.0, "after_second_sample": 2.0}


class _EdgeRecorder(HwModule):
    """Records every falling edge on one signal."""

    def __init__(self, kernel, signal):
        self.line = signal
        self.edges: list[float] = []
        super().__init__(kernel, "edge-recorder")

    def build(self):
        self.thread(self.run)

    def run(self):
        while True:
            yield wait_negedge(self.line)
            self.edges.append(self.kernel.sim.now)


def _poll_through_slave1(raise_at=None):
    """SELECT slave 2, then POLL it; returns ``(poll result, completion
    time, falling edges on slave 1's upstream input during the POLL)``.

    With ``raise_at`` set, slave 1 raises INT at that instant and no edge
    recorder is attached."""
    sim = Simulator(seed=1)
    kernel = HwKernel(sim)
    timing = PhyTiming(fw_jitter_bits=0.0)
    bus = BitLevelTpwireBus(sim, kernel, timing)
    slaves = [TpwireSlave(sim, node_id, BusTiming()) for node_id in (1, 2)]
    for slave in slaves:
        bus.attach_slave(slave)
    bus.finalize()
    recorder = None
    if raise_at is None:
        recorder = _EdgeRecorder(kernel, bus.slave_phys[0].up_in)
    else:
        sim.at(raise_at, slaves[0].raise_interrupt)
    outcome = {}

    def driver():
        yield bus.execute(TxFrame(Command.SELECT, node_address(2)))
        outcome["poll_start"] = sim.now
        outcome["result"] = yield bus.execute(TxFrame(Command.POLL, 0))
        outcome["done"] = sim.now

    sim.spawn(driver())
    sim.run()
    edges = []
    if recorder is not None:
        edges = [t for t in recorder.edges if t > outcome["poll_start"]]
    return outcome["result"], outcome["done"], edges


def _record() -> list[dict]:
    bp = PhyTiming().bit_period
    _result, _done, edges = _poll_through_slave1()
    reply_edge = edges[0]
    runs = []
    for case, offset_bits in CASES.items():
        raise_at = reply_edge + offset_bits * bp
        result, done, _edges = _poll_through_slave1(raise_at)
        runs.append({
            "case": case,
            "raise_at": repr(raise_at),
            "status": result.status.name,
            "rx": result.rx.encode(),
            "int_pending": result.rx.int_pending,
            "t": repr(done),
        })
    return runs


def test_int_is_decided_at_the_second_sample():
    runs = {run["case"]: run for run in _record()}
    assert runs["before_edge"]["int_pending"]
    assert runs["between_samples"]["int_pending"]
    assert not runs["after_second_sample"]["int_pending"]
    assert {run["status"] for run in runs.values()} == {"OK"}


def test_int_decision_matches_golden():
    recorded = "".join(json.dumps(run, sort_keys=True) + "\n" for run in _record())
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.write_text(recorded)
    if not GOLDEN.exists():
        pytest.fail(f"golden {GOLDEN} missing; record it with REGEN_GOLDEN=1")
    assert recorded == GOLDEN.read_text()
