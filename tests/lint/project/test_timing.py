"""The lint timing gate: one cold and warm full pass, five ways to fail."""

import pytest

from repro.lint.project import timing
from tests.lint.project.projutil import write_project

_FIXTURE = {
    "pyproject.toml": """\
        [tool.repro-lint.project]
        roots = ["src"]
        cache = ".cache.json"
        """,
    "src/repro/net/__init__.py": "",
    "src/repro/net/srv.py": """\
        def advance(state):
            state.append(1)

        def setup(sim):
            sim.call_after(1.0, advance)
        """,
}

#: A measurement that passes every check at ``--min-speedup 3``; each
#: failure case below breaks exactly one field of it.
_GOOD = {
    "cold_seconds": 2.0,
    "warm_seconds": 0.5,
    "speedup": 4.0,
    "cold_parsed": 2,
    "warm_parsed": 0,
    "cold_effects_built": 1,
    "warm_effects_built": 0,
    "warm_effects_reused": 1,
    "files": 2,
    "identical": True,
}


def test_clean_fixture_passes_the_gate(tmp_path, monkeypatch, capsys):
    write_project(tmp_path, _FIXTURE)
    monkeypatch.chdir(tmp_path)
    assert timing.main(["src", "--min-speedup", "0", "--warm-runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "warm" in out and "(0 parsed, 0 graphs built)" in out


@pytest.mark.parametrize(
    "override, message",
    [
        ({"identical": False}, "warm findings differ"),
        ({"warm_parsed": 1}, "re-parsed 1 files"),
        ({"warm_effects_built": 1}, "rebuilt 1 call graphs"),
        ({"speedup": 2.5}, "speedup 2.50x < required 3.00x"),
        ({"warm_seconds": timing.WARM_BUDGET_S + 0.1}, "> budget"),
    ],
    ids=["findings-differ", "warm-parsed", "warm-graph-built", "speedup", "budget"],
)
def test_each_failure_condition_fails_the_gate(monkeypatch, capsys, override, message):
    monkeypatch.setattr(timing, "measure", lambda *a, **k: {**_GOOD, **override})
    assert timing.main(["src", "--min-speedup", "3"]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert err.count("FAIL:") == 1
