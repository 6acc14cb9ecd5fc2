"""Tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from collections import namedtuple
from types import SimpleNamespace

import pytest

from benchmarks.e2e import cli, layers, loadgen, metrics, sims, speed, stats, traffic
from repro.core import Message, MessageType
from repro.core.protocol import encode_message, make_wire_codec

# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize(
    "count, cap, expected",
    [(20_000, 99.0, 99.0), (20_000, 99.9, 99.9), (1000, 99.9, 99.0),
     (500, 99.0, 95.0), (100, 99.0, 90.0), (15, 99.0, 50.0)],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, cap, expected):
    ordered = [float(i) for i in range(count)]
    pct, value, n = stats.tail(ordered, cap=cap)
    assert (pct, n) == (expected, count)
    assert value == stats.percentile(ordered, pct)
    if pct != 50.0:
        assert stats.beyond(count, pct) >= stats.MIN_BEYOND


# -- knee search -------------------------------------------------------------


def md1_p99(rate: float, service: float, gaps: list) -> float:
    """p99 sojourn time of an M/D/1 queue (Lindley recursion) at ``rate``."""
    wait, sojourns = 0.0, []
    for gap in gaps:
        wait = max(0.0, wait + service - gap / rate)
        sojourns.append(wait + service)
    return stats.percentile(sorted(sojourns), 99)


def test_knee_search_finds_md1_capacity_within_one_bisection_step():
    rng = random.Random(7)
    gaps = [rng.expovariate(1.0) for _ in range(5000)]
    service, limit = 1e-3, 0.05

    def probe(rate: float) -> bool:
        return md1_p99(rate, service, gaps) <= limit

    low, high = 100.0, 2000.0  # the true knee, by a long bisection
    for _ in range(50):
        mid = math.sqrt(low * high)
        low, high = (mid, high) if probe(mid) else (low, mid)

    factor, bisections = 4.0, 5
    knee, steps = stats.find_knee(probe, 100.0, True, factor=factor, bisections=bisections)
    one_step = factor ** (1 / 2 ** bisections)
    assert low / one_step <= knee <= low
    assert all(passed == (rate <= low) for rate, passed in steps)


def test_knee_search_goes_down_from_a_failing_start_and_stops_on_budget():
    knee, steps = stats.find_knee(lambda r: r <= 300.0, 1000.0, False, factor=2.0)
    assert steps[0] == (500.0, False) and steps[1] == (250.0, True)
    assert 250.0 <= knee <= 300.0
    calls = []
    knee, steps = stats.find_knee(
        lambda r: calls.append(r) or True, 10.0, True, more=lambda: len(calls) < 3,
    )
    assert len(steps) == 3 and knee == 80.0


# -- layer map ---------------------------------------------------------------


def test_every_repro_module_maps_to_exactly_one_layer():
    modules = [
        layers.module_name(path)
        for path in sorted((layers.SRC_ROOT / "repro").rglob("*.py"))
    ]
    assert "repro.core.space" in modules and "repro.des.scheduler" in modules
    unmapped = {m: layers.module_layers(m) for m in modules if len(layers.module_layers(m)) != 1}
    assert unmapped == {}
    assert all(layers.layer_of(m) in layers.LAYERS for m in modules)


def test_a_new_core_module_is_unmapped():
    assert layers.module_layers("repro.core.session") == []
    with pytest.raises(KeyError):
        layers.layer_of("repro.core.session")


# -- sampler attribution -----------------------------------------------------


Code = namedtuple("Code", "co_filename co_qualname co_name")


def _stack(*frames):
    """A synthetic stack, outermost first: ``(filename, qualname)`` pairs."""
    frame = None
    for filename, qualname in frames:
        frame = SimpleNamespace(f_code=Code(filename, qualname, qualname), f_back=frame)
    return frame


def test_sampler_attributes_innermost_repro_frame():
    repro = layers.SRC_ROOT / "repro"
    stdlib = "/usr/lib/python3/asyncio/events.py"
    etree = "/usr/lib/python3/xml/etree/ElementTree.py"
    bench = str(pathlib.Path(layers.__file__))
    cache: dict = {}
    stack = _stack(
        (stdlib, "Handle._run"),
        (str(repro / "core" / "aio.py"), "_AsyncConnection._read_loop"),
        (str(repro / "core" / "protocol.py"), "StreamParser.feed"),
        (str(repro / "core" / "protocol.py"), "XmlWireCodec.decode_body"),
        (str(repro / "core" / "xmlcodec.py"), "XmlCodec.from_element"),
        (etree, "XMLParser.feed"),
    )
    assert layers.attribute(stack, cache) == "codec"
    assert layers.attribute(stack.f_back.f_back.f_back, cache) == "framing"
    assert layers.attribute(_stack((stdlib, "run"), (bench, "timed")), cache) == "loop"
    assert layers.attribute(_stack((bench, "main")), cache) == "other"
    assert layers.attribute(
        _stack((str(repro / "des" / "simulator.py"), "Simulator.run"),
               (str(repro / "hw" / "signal.py"), "Signal.set")), cache,
    ) == "hw"


def test_sampler_self_times_cover_cpu_time():
    sampler = layers.Sampler()
    sampler.start()
    total = 0
    for i in range(3_000_000):
        total += i
    sampler.stop()
    profile = sampler.summary()
    assert profile["samples"] > 0
    assert profile["attributed_ratio"] == pytest.approx(1.0, abs=0.25)


# -- reply verification ------------------------------------------------------


def test_verifier_flags_wrong_error_and_missing_replies():
    registry = traffic.registry()
    wire = make_wire_codec("binary", registry)
    expected = [traffic.part(k, 1) for k in range(4)]
    plan = loadgen.Plan(
        due=[0.0] * 4, conn=[0] * 4, msg_type=[int(MessageType.READ_IF_EXISTS)] * 4,
        request_id=[11, 12, 13, 14], body=[b""] * 4,
        expected=[(MessageType.RESULT_ENTRY, item) for item in expected],
    )
    replies = [
        Message(MessageType.RESULT_ENTRY, 11, {}, expected[0]),
        Message(MessageType.RESULT_ENTRY, 12, {}, traffic.part(99, 1)),
        Message(MessageType.ERROR, 13, {"text": "boom"}),
    ]
    log = bytearray(b"".join(encode_message(m, wire) for m in replies))
    window = loadgen.Window(0.0, plan, [0.0] * 4, [1.0] * 4, [log], True)
    check = loadgen.verify([SimpleNamespace(wire=wire)], window)
    assert check == {"errors": 1, "wrong": 1, "unanswered": 1, "hits": 2}


def test_op_mixes_expect_exactly_what_a_space_answers():
    """Replay both op mixes against a real space: every expectation holds."""
    from repro.core import TupleSpace

    for workload, model in traffic.MODELS.items():
        space = TupleSpace()
        traffic.preload(space, workload, 3)
        mix = model(0, 2, 3, traffic.PRELOAD[workload])
        rng = random.Random(3)
        for _ in range(2000):
            msg_type, params, item, _key, expect_type, expect_item = mix.next(rng)
            if msg_type is MessageType.WRITE:
                space.write(item, lease=params.get("lease"))
                assert expect_type is MessageType.WRITE_ACK
                continue
            op = space.read_if_exists if msg_type is MessageType.READ_IF_EXISTS else space.take_if_exists
            assert op(item) == expect_item


# -- benchmark definition ----------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((metrics.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == cli.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == list(table)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_reference_covers_every_cell():
    reference = sims.load_reference()
    for workload, cells in sims.CELLS.items():
        assert sorted(reference[workload]) == sorted(cells)


# -- host-speed scaling ------------------------------------------------------


def test_scaling_expresses_work_at_the_nominal_chunk_time():
    nominal = speed.NOMINAL_CHUNK_S
    assert speed.scaled(2.0, 10 * nominal, 10) == pytest.approx(2.0)
    # A host running the chunks at half speed ran the work at half speed too.
    assert speed.scaled(4.0, 20 * nominal, 10) == pytest.approx(2.0)
    assert speed.chunk() == speed.chunk() and speed.chunk_s() > 0.0


def test_sliced_pass_reproduces_the_reference_cells():
    names = ["w2_cbr0.0", "w1_cbr1.0"]  # one completes, one runs out of time
    scaled, raw, observed = sims.run_scaled_pass("table4", names)
    assert sims.mismatches("table4", observed, sims.load_reference()) == []
    assert sorted(observed) == sorted(names)
    assert scaled > 0.0 and raw > 0.0
