"""Golden pin of the bit-level wire across PHY timings and chain depths.

``tests/golden/phy_edges.jsonl`` pins every committed transition at the
default :class:`PhyTiming`.  This sweep runs the same kinds of cycle at
eight other valid timings (hop delay, turnaround, poll granularity,
firmware overhead and jitter, timeout margin) over chains of 1 to 4
slaves, so a change to when or in which order levels commit shows up at
timings where bit slots, forwards and polls line up differently.

Each run records one line: the timing, the depth, every cycle's status,
completion time (``repr``) and RX word, and the count and SHA-256 of the
committed transitions — ``(repr(time), signal, value)`` in commit order,
the same record ``test_phy_edges.py`` keeps in full.

Regenerate (after an *intentional* change of the wire) with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/hw/test_phy_timing_sweep.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro.des import Simulator
from repro.hw import BitLevelTpwireBus, HwKernel, PhyTiming
from repro.tpwire import BusTiming, Command, TpwireSlave, TxFrame, node_address
from repro.tpwire.commands import BROADCAST_NODE_ID
from tests.hw.test_phy_edges import record_transitions

GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent / "golden" / "phy_timing_sweep.jsonl"
)

TIMINGS = [
    PhyTiming(hop_delay_bits=3.0),
    PhyTiming(hop_delay_bits=1.5, turnaround_bits=3.0, poll_bits=0.25),
    PhyTiming(hop_delay_bits=2.5, turnaround_bits=2.0, timeout_margin=1.0),
    PhyTiming(hop_delay_bits=1.25, turnaround_bits=1.0),
    PhyTiming(hop_delay_bits=1.0, turnaround_bits=0.5, poll_bits=0.25),
    PhyTiming(
        hop_delay_bits=4.0, turnaround_bits=6.0, poll_bits=1.0,
        fw_overhead_bits=10.0, fw_jitter_bits=4.0, timeout_margin=1.5,
    ),
    PhyTiming(
        turnaround_bits=1.0, poll_bits=0.75,
        fw_overhead_bits=3.0, fw_jitter_bits=0.5, timeout_margin=3.0,
    ),
    PhyTiming(
        bit_rate=9600.0, hop_delay_bits=1.75, turnaround_bits=2.5,
        fw_overhead_bits=4.0, fw_jitter_bits=0.0,
    ),
]

DEPTHS = (1, 2, 3, 4)


def _script(depth: int) -> list[tuple[str, TxFrame]]:
    return [
        ("select", TxFrame(Command.SELECT, node_address(depth))),
        ("write_addr", TxFrame(Command.WRITE_ADDR, 0x08)),
        ("write_data", TxFrame(Command.WRITE_DATA, 0xA5)),
        ("write_addr", TxFrame(Command.WRITE_ADDR, 0x08)),
        ("read_data", TxFrame(Command.READ_DATA, 0)),
        ("int_poll", TxFrame(Command.POLL, 0)),
        ("broadcast", TxFrame(Command.SELECT, node_address(BROADCAST_NODE_ID))),
        ("missing_node", TxFrame(Command.SELECT, node_address(9))),
    ]


def _run(timing: PhyTiming, depth: int) -> list:
    sim = Simulator(seed=7)
    kernel = HwKernel(sim)
    bus = BitLevelTpwireBus(sim, kernel, timing)
    slaves = [TpwireSlave(sim, node_id, BusTiming()) for node_id in range(1, depth + 1)]
    for slave in slaves:
        bus.attach_slave(slave)
    bus.finalize()
    cycles = []

    def driver():
        for label, frame in _script(depth):
            if label == "int_poll":
                slaves[0].raise_interrupt()
            result = yield bus.execute(frame)
            rx = result.rx.encode() if result.rx is not None else None
            cycles.append([label, result.status.name, repr(sim.now), rx])

    sim.spawn(driver())
    sim.run()
    return cycles


def _record(monkeypatch) -> str:
    transitions: list[str] = []
    record_transitions(monkeypatch, transitions)
    lines = []
    for timing in TIMINGS:
        for depth in DEPTHS:
            transitions.clear()
            cycles = _run(timing, depth)
            wire = "\n".join(transitions).encode()
            lines.append(json.dumps({
                "timing": dataclasses.asdict(timing),
                "depth": depth,
                "cycles": cycles,
                "transitions": len(transitions),
                "sha256": hashlib.sha256(wire).hexdigest(),
            }, sort_keys=True))
    return "\n".join(lines) + "\n"


def test_wire_matches_golden_at_every_timing(monkeypatch):
    recorded = _record(monkeypatch)
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.write_text(recorded)
    if not GOLDEN.exists():
        pytest.fail(f"golden {GOLDEN} missing; record it with REGEN_GOLDEN=1")
    golden = GOLDEN.read_text().splitlines()
    for got, want in zip(recorded.splitlines(), golden):
        run = json.loads(want)
        assert json.loads(got) == run, (
            f"wire diverged from {GOLDEN.name} at depth {run['depth']}, "
            f"timing {run['timing']}"
        )
    assert len(recorded.splitlines()) == len(golden)


def test_sweep_covers_every_cycle_kind(monkeypatch):
    statuses = {}
    for line in _record(monkeypatch).splitlines():
        run = json.loads(line)
        for label, status, _t, rx in run["cycles"]:
            statuses.setdefault(label, set()).add(status)
            if label == "int_poll":
                assert rx & 0x4000  # slave 1 set the INT bit at every depth
    assert statuses["read_data"] == {"OK"}
    assert statuses["broadcast"] == {"BROADCAST"}
    assert statuses["missing_node"] == {"TIMEOUT"}
