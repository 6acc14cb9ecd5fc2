"""Golden-trace regression tests.

Each test re-runs a reference scenario with a tracer attached and
compares the JSONL trace **byte-for-byte** against a recorded golden
under ``tests/golden/``; the metrics summary of the same two runs is
pinned the same way, as sorted, indented JSON.  Because every record is
stamped with the simulation clock and serialised with sorted keys, the
trace is a pure function of the scenario — any drift in protocol
timing, event ordering or serialisation shows up as a diff, independent
of ``PYTHONHASHSEED``.

Regenerate (after an *intentional* behaviour change) with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_traces.py

and review the golden diff like any other code change.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.core import (
    ANY,
    LindaTuple,
    ManualClock,
    Message,
    MessageType,
    SpaceServer,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.cosim.scenarios import CaseStudyConfig, CaseStudyScenario, ValidationScenario
from repro.obs import Observability

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"

#: Middleware-level categories for the Table 4 trace: the full bus trace
#: of the 151 s case study is tens of thousands of lines; the filtered
#: trace pins down the tuplespace protocol without the frame noise.
TABLE4_CATEGORIES = frozenset({"space", "server", "client", "scenario"})


def _table3_run() -> Observability:
    """One-packet validation run, every category traced."""
    obs = Observability()
    ValidationScenario(bit_level=False, obs=obs).run(1)
    return obs


def _table4_run() -> Observability:
    """Table 4 baseline cell, middleware categories traced."""
    obs = Observability(trace_categories=TABLE4_CATEGORIES)
    CaseStudyScenario(CaseStudyConfig(), obs=obs).run()
    return obs


def _metrics_json(obs: Observability) -> str:
    return json.dumps(obs.summary(), sort_keys=True, indent=1)


RECORDERS = {
    "table3_validation.jsonl": lambda: _table3_run().tracer.to_jsonl(),
    "table4_baseline.jsonl": lambda: _table4_run().tracer.to_jsonl(),
    "table3_metrics.json": lambda: _metrics_json(_table3_run()),
    "table4_metrics.json": lambda: _metrics_json(_table4_run()),
}


def _check_golden(name: str) -> None:
    recorded = RECORDERS[name]()
    path = GOLDEN_DIR / name
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(recorded)
    if not path.exists():
        pytest.fail(
            f"golden {path} missing; record it with REGEN_GOLDEN=1"
        )
    golden = path.read_text()
    assert recorded == golden, (
        f"{name} diverged from {path} "
        f"({len(recorded.splitlines())} vs {len(golden.splitlines())} lines); "
        "if the change is intentional, regenerate with REGEN_GOLDEN=1"
    )


@pytest.mark.parametrize("name", sorted(RECORDERS))
def test_trace_matches_golden(name):
    _check_golden(name)


def test_table3_trace_is_stable_within_process():
    """Two in-process runs are byte-identical (no leaked global state)."""
    trace = RECORDERS["table3_validation.jsonl"]
    assert trace() == trace()


def test_table4_baseline_trace_and_metrics_are_deterministic():
    """Two same-seed runs of the Table 4 baseline agree on the full trace
    *and* every metric — the contract the engine fast path (cached event
    keys, deque buckets, precomputed timing tables) must not disturb."""

    def run_once():
        obs = Observability(trace_categories=TABLE4_CATEGORIES)
        result = CaseStudyScenario(CaseStudyConfig(), obs=obs).run()
        return obs.tracer.to_jsonl(), obs.metrics.summary(), result

    first_trace, first_metrics, first_result = run_once()
    second_trace, second_metrics, second_result = run_once()
    assert first_trace == second_trace
    assert first_metrics == second_metrics
    assert first_result == second_result


def test_notify_scenario_trace_and_metrics_are_deterministic():
    """The Table-4 determinism contract extended to a notify-using
    workload: two identical in-process runs must log identical
    ``registration=`` ids.  Regression: registration ids came from a
    process-global counter, so the second run's notify events carried
    different ids and the traces diverged."""

    class _SinkSession:
        def __init__(self):
            self.sent = []

        def send(self, message):
            self.sent.append(message)

    def run_once():
        obs = Observability(trace_categories=frozenset({"space", "server"}))
        clock = ManualClock()
        space = TupleSpace(clock=clock, name="notifyspace", obs=obs)
        server = SpaceServer(space, XmlCodec(), obs=obs)
        session = _SinkSession()
        server.handle(session, Message(
            MessageType.NOTIFY_REGISTER, 1, {}, TupleTemplate("alarm", ANY)
        ))
        server.handle(session, Message(
            MessageType.WRITE, 2, {}, LindaTuple("alarm", "overheat")
        ))
        clock.advance(1.0)
        server.handle(session, Message(
            MessageType.WRITE, 3, {}, LindaTuple("alarm", "overcurrent")
        ))
        notify_ids = [
            m.param_int("registration_id")
            for m in session.sent
            if m.msg_type is MessageType.NOTIFY_EVENT
        ]
        return obs.tracer.to_jsonl(), obs.metrics.summary(), notify_ids

    first_trace, first_metrics, first_ids = run_once()
    second_trace, second_metrics, second_ids = run_once()
    assert first_ids == second_ids == [1, 1]
    assert first_trace == second_trace
    assert first_metrics == second_metrics


def test_goldens_are_valid_jsonl():
    for name in RECORDERS:
        if not name.endswith(".jsonl"):
            continue
        path = GOLDEN_DIR / name
        if not path.exists():
            continue
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert {"t", "seq", "cat", "name"} <= record.keys()
