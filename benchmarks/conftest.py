"""Shared benchmark fixtures.

Every bench both *times* a representative unit of work (pytest-benchmark)
and *regenerates* its table/figure data.  The regenerated rows are written
straight to the terminal (bypassing capture) and into
``benchmarks/results/<name>.txt`` so the reproduction artefacts survive
the run; the same data also lands as a structured
``benchmarks/results/BENCH_<name>.json`` document
(schema ``repro.obs/bench-v1``) via the :func:`bench_json` fixture, which
round-trips every artefact through :func:`repro.obs.load_bench_json`
before the bench is allowed to pass — a malformed document fails the run,
not a later consumer.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.obs import load_bench_json, write_bench_json
from repro.obs.export import bench_payload

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report(request):
    """``report(name, text)``: show a reproduced table and persist it."""
    terminal = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        if terminal is not None:
            terminal.write_line("")
            terminal.write_line(text)

    return _report


@pytest.fixture
def bench_json():
    """``bench_json(name, rows=…, derived=…, metrics=…)``: write and
    re-validate ``BENCH_<name>.json``; returns the loaded payload.

    The write → load → compare round trip is the regression guard: it
    fails the bench if the payload drifts from the bench-v1 schema or
    loses data in serialisation (e.g. a non-finite float sneaking in).
    """

    def _bench_json(name, rows=None, derived=None, metrics=None) -> dict:
        path = write_bench_json(
            RESULTS_DIR, name, rows=rows, derived=derived, metrics=metrics
        )
        payload = load_bench_json(path)
        assert payload == bench_payload(
            name, rows=rows, derived=derived, metrics=metrics
        ), f"{path} did not survive the serialisation round trip"
        return payload

    return _bench_json
