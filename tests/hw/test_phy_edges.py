"""Golden pin of the bit-level TpWIRE wire itself.

A short bit-level run drives one cycle of every kind the PHY handles —
SELECT / WRITE_ADDR / WRITE_DATA / READ_DATA to a depth-3 slave, an INT
piggyback through a repeater, a broadcast, a missing-node timeout and a
TX frame with a flipped CRC bit — and records every *committed* signal
transition as ``(repr(time), signal name, value)`` plus each cycle's
status and completion time.  The record is compared byte for byte with
``tests/golden/phy_edges.jsonl``, so any change to when a level commits
on any line, however small, shows up as a diff.

Regenerate (after an *intentional* change of the wire) with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/hw/test_phy_edges.py

and review the golden diff like any other code change.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.des import Simulator
from repro.des.process import Waitable
from repro.hw import BitLevelTpwireBus, HwKernel, PhyTiming, Signal
from repro.tpwire import BusTiming, Command, TpwireSlave, TxFrame, node_address
from repro.tpwire.commands import BROADCAST_NODE_ID

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden" / "phy_edges.jsonl"


class _FlippedCrcFrame:
    """A TX frame whose last CRC bit is inverted on the wire."""

    def __init__(self, frame: TxFrame):
        self._bits = frame.to_bits()
        self._bits[-1] ^= 1

    def to_bits(self) -> list[int]:
        return list(self._bits)


def run_scenario(sim: Simulator, on_cycle) -> BitLevelTpwireBus:
    """Run the cycle script on a 3-slave chain; ``on_cycle(label,
    result)`` sees each cycle as it completes."""
    kernel = HwKernel(sim)
    bus = BitLevelTpwireBus(sim, kernel, PhyTiming())
    timing = BusTiming()
    slaves = {}
    for node_id in (1, 2, 3):
        slaves[node_id] = TpwireSlave(sim, node_id, timing)
        bus.attach_slave(slaves[node_id])
    bus.finalize()

    def flipped_crc_cycle():
        done = Waitable(sim)
        frame = _FlippedCrcFrame(TxFrame(Command.SELECT, node_address(3)))
        bus.master_phy.submit(frame, True, done.succeed)
        return done

    cycles = [
        ("select", lambda: bus.execute(TxFrame(Command.SELECT, node_address(3)))),
        ("write_addr", lambda: bus.execute(TxFrame(Command.WRITE_ADDR, 0x08))),
        ("write_data", lambda: bus.execute(TxFrame(Command.WRITE_DATA, 0xA5))),
        ("write_addr", lambda: bus.execute(TxFrame(Command.WRITE_ADDR, 0x08))),
        ("read_data", lambda: bus.execute(TxFrame(Command.READ_DATA, 0))),
        ("int_poll", lambda: bus.execute(TxFrame(Command.POLL, 0))),
        ("broadcast", lambda: bus.execute(
            TxFrame(Command.SELECT, node_address(BROADCAST_NODE_ID)))),
        ("missing_node", lambda: bus.execute(TxFrame(Command.SELECT, node_address(9)))),
        ("flipped_crc", flipped_crc_cycle),
        ("select_after_drop", lambda: bus.execute(
            TxFrame(Command.SELECT, node_address(2)))),
    ]

    def driver():
        for label, start in cycles:
            if label == "int_poll":
                slaves[1].raise_interrupt()
            on_cycle(label, (yield start()))

    sim.spawn(driver())
    sim.run()
    return bus


def record_transitions(monkeypatch, lines: list) -> None:
    """Append ``json([repr(time), signal name, value])`` to ``lines`` for
    every committed transition, in commit order."""
    original = Signal.apply_update

    def recording_apply_update(signal):
        before = signal.value
        original(signal)
        if signal.value != before:
            lines.append(json.dumps(
                [repr(signal.kernel.sim.now), signal.name, signal.value]
            ))

    monkeypatch.setattr(Signal, "apply_update", recording_apply_update)


def _record_run(monkeypatch) -> tuple[list[str], BitLevelTpwireBus]:
    lines: list[str] = []
    record_transitions(monkeypatch, lines)
    sim = Simulator(seed=7)

    def on_cycle(label, result):
        rx = result.rx.encode() if result.rx is not None else None
        lines.append(json.dumps(
            {"cycle": label, "status": result.status.name,
             "t": repr(sim.now), "rx": rx}, sort_keys=True
        ))

    bus = run_scenario(sim, on_cycle)
    return lines, bus


def test_wire_matches_golden(monkeypatch):
    lines, _bus = _record_run(monkeypatch)
    recorded = "\n".join(lines) + "\n"
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.write_text(recorded)
    if not GOLDEN.exists():
        pytest.fail(f"golden {GOLDEN} missing; record it with REGEN_GOLDEN=1")
    golden = GOLDEN.read_text()
    assert recorded == golden, (
        f"committed wire transitions diverged from {GOLDEN} "
        f"({len(recorded.splitlines())} vs {len(golden.splitlines())} lines)"
    )


def test_run_covers_every_cycle_kind(monkeypatch):
    lines, bus = _record_run(monkeypatch)
    cycles = [json.loads(line) for line in lines if line.startswith("{")]
    statuses = {c["cycle"]: c["status"] for c in cycles}
    assert statuses["read_data"] == "OK"
    assert statuses["broadcast"] == "BROADCAST"
    assert statuses["missing_node"] == "TIMEOUT"
    assert statuses["flipped_crc"] == "TIMEOUT"
    assert statuses["select_after_drop"] == "OK"
    read = next(c for c in cycles if c["cycle"] == "read_data")
    assert read["rx"] & 0xFF0 == 0xA50  # DATA byte sits above the CRC nibble
    poll = next(c for c in cycles if c["cycle"] == "int_poll")
    assert poll["rx"] & 0x4000  # INT bit set by the repeating slave 1
    assert [phy.crc_drops for phy in bus.slave_phys] == [1, 1, 1]
