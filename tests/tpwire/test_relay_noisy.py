"""Golden pin of the master relay's fault paths on a noisy line.

``tests/golden/relay_noisy.jsonl`` holds one line per seeded run of the
``build_noisy`` topology of ``test_fault_tolerance.py``: the instant and
content of every delivery, the poller's recovery counters, the master's
transaction and retry counts and the bus's frame, timeout and CRC-error
counts.  Every garbled reply to a FIFO pop, every garbled write
acknowledgement and every resent frame moves one of these numbers, so
the relay's destructive-FIFO rules are pinned cycle for cycle, including
a run whose line is bad enough to exhaust the per-byte budget.

Regenerate (after an *intentional* change of the relay) with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/tpwire/test_relay_noisy.py
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from tests.tpwire.test_fault_tolerance import PAYLOAD, build_noisy

GOLDEN = (
    pathlib.Path(__file__).resolve().parent.parent / "golden" / "relay_noisy.jsonl"
)

#: Seconds of simulated time per run: every send is delivered by about
#: 13 s on the lines that deliver at all.
UNTIL = 30.0

#: ``(p_rx, p_tx, seed, node_ids, sends)``; a send is ``(src, dest, size)``.
RUNS = [
    (0.02, 0.0, 11, (1, 2), [(1, 2, 200)]),
    (0.10, 0.0, 11, (1, 2), [(1, 2, 200)]),
    (0.0, 0.05, 11, (1, 2), [(1, 2, 200)]),
    (0.04, 0.04, 5, (1, 2, 3), [(1, 2, 200), (3, 1, 90), (2, 3, 33)]),
    (0.10, 0.10, 7, (1, 2, 3), [(2, 1, 64), (3, 2, 200)]),
    (0.3, 0.3, 11, (1, 2), [(1, 2, 200)]),
    # Seven mailbox bursts (five reads, two writes) run out of their
    # per-byte budget of eight resends here.
    (0.0, 0.6, 3, (1, 2), [(1, 2, 200)]),
]


def _run(p_rx, p_tx, seed, node_ids, sends) -> dict:
    sim, endpoints, poller = build_noisy(
        p_rx=p_rx, p_tx=p_tx, seed=seed, node_ids=node_ids
    )
    deliveries = []
    for node_id, endpoint in endpoints.items():
        endpoint.on_data = (
            lambda src, data, _ctx, dest=node_id: deliveries.append([
                repr(sim.now), src, dest, len(data),
                hashlib.sha256(data).hexdigest()[:16],
            ])
        )
    poller.start()
    for src, dest, size in sends:
        endpoints[src].send(dest, PAYLOAD[:size])
    sim.run(until=UNTIL)
    master = poller.master
    bus = master.bus
    return {
        "p_rx": p_rx, "p_tx": p_tx, "seed": seed, "nodes": list(node_ids),
        "sends": [list(send) for send in sends],
        "deliveries": deliveries,
        "relayed_messages": poller.relayed_messages,
        "dropped_messages": poller.dropped_messages,
        "recovered_bytes": poller.recovered_bytes,
        "optimistic_acks": poller.optimistic_acks,
        "bus_errors": poller.bus_errors,
        "transactions": master.transactions,
        "retries": master.retries,
        "tx_frames": bus.tx_frames,
        "timeouts": bus.timeouts,
        "crc_errors": bus.crc_errors,
    }


def _record() -> list[dict]:
    return [_run(*run) for run in RUNS]


def test_relay_matches_golden():
    recorded = _record()
    text = "".join(json.dumps(run, sort_keys=True) + "\n" for run in recorded)
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.write_text(text)
    if not GOLDEN.exists():
        pytest.fail(f"golden {GOLDEN} missing; record it with REGEN_GOLDEN=1")
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(recorded) == len(golden)
    for got, want in zip(recorded, golden):
        assert got == want, (
            f"relay diverged from {GOLDEN.name} at p_rx={want['p_rx']}, "
            f"p_tx={want['p_tx']}, seed={want['seed']}"
        )


def test_golden_covers_every_fault_path():
    golden = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert any(run["recovered_bytes"] for run in golden)
    assert any(run["optimistic_acks"] for run in golden)
    assert any(run["timeouts"] for run in golden)
    assert any(run["bus_errors"] and not run["deliveries"] for run in golden)
    assert all(
        run["deliveries"] for run in golden if max(run["p_rx"], run["p_tx"]) < 0.3
    )
