"""The lint timing gate over an effects fixture: warm passes serve the digest tier."""

from repro.lint.project import timing
from tests.lint.project.projutil import write_project

_FIXTURE = {
    "pyproject.toml": """\
        [tool.repro-lint.project]
        roots = ["src"]
        cache = ".cache.json"
        """,
    "src/repro/net/__init__.py": "",
    "src/repro/net/drv.py": """\
        def advance(state):
            state.append(1)

        def setup(sim):
            sim.call_after(1.0, advance)
        """,
}


def test_clean_fixture_passes_the_guard(tmp_path, monkeypatch, capsys):
    write_project(tmp_path, _FIXTURE)
    monkeypatch.chdir(tmp_path)
    assert timing.main(["src", "--min-speedup", "0", "--warm-runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "(0 parsed, 0 graphs built)" in out


def test_budget_overrun_fails(tmp_path, monkeypatch, capsys):
    write_project(tmp_path, _FIXTURE)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(timing, "WARM_BUDGET_S", 0.0)
    assert timing.main(["src", "--min-speedup", "0", "--warm-runs", "1"]) == 1
    assert "budget" in capsys.readouterr().err
