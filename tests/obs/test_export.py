"""Bench JSON exporter tests: schema build/validate/write/load round trip."""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    MetricRegistry,
    SchemaError,
    load_bench_json,
    write_bench_json,
)
from repro.obs.export import (
    BENCH_SCHEMA,
    bench_json_path,
    bench_payload,
    dump_bench_json,
    validate_bench_payload,
)


def test_payload_shape_and_schema_tag():
    payload = bench_payload("t", rows=[{"x": 1}], derived={"f": 2.0})
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["rows"] == [{"x": 1}]
    assert payload["derived"] == {"f": 2.0}
    assert payload["metrics"] == {}
    validate_bench_payload(payload)


def test_payload_accepts_metric_registry():
    registry = MetricRegistry(lambda: 0.0)
    registry.attach("c", lambda: 5)
    payload = bench_payload("t", metrics=registry)
    assert payload["metrics"]["counters"]["c"] == 5


def test_non_finite_floats_become_null():
    payload = bench_payload(
        "t", rows=[{"a": math.nan}], derived={"b": math.inf}
    )
    assert payload["rows"][0]["a"] is None
    assert payload["derived"]["b"] is None
    # strict JSON round trip holds
    assert json.loads(dump_bench_json(payload)) == payload


def test_unsafe_values_rejected():
    with pytest.raises(SchemaError):
        bench_payload("t", rows=[{"x": object()}])
    with pytest.raises(SchemaError):
        bench_payload("t", derived={1: "non-string key"})
    with pytest.raises(SchemaError):
        bench_payload("")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("schema"),
        lambda p: p.update(schema="other/v9"),
        lambda p: p.update(extra=1),
        lambda p: p.update(rows={}),
        lambda p: p.update(rows=[1]),
        lambda p: p.update(derived=[]),
        lambda p: p.update(metrics=[]),
        lambda p: p.update(name=""),
    ],
)
def test_validate_rejects_malformed_payloads(mutate):
    payload = bench_payload("t")
    mutate(payload)
    with pytest.raises(SchemaError):
        validate_bench_payload(payload)


def test_dump_is_deterministic():
    payload = bench_payload("t", rows=[{"b": 2, "a": 1}])
    assert dump_bench_json(payload) == dump_bench_json(payload)
    assert dump_bench_json(payload).endswith("\n")


def test_write_and_load_round_trip(tmp_path):
    path = write_bench_json(
        tmp_path, "demo", rows=[{"x": 1}], derived={"k": "v"}
    )
    assert path == bench_json_path(tmp_path, "demo")
    assert path.name == "BENCH_demo.json"
    assert load_bench_json(path) == bench_payload(
        "demo", rows=[{"x": 1}], derived={"k": "v"}
    )


def test_load_rejects_invalid_documents(tmp_path):
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("not json")
    with pytest.raises(SchemaError):
        load_bench_json(bad)
    bad.write_text('{"schema": "wrong"}')
    with pytest.raises(SchemaError):
        load_bench_json(bad)
