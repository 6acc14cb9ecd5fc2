"""The lint timing gate over a concurrency fixture: warm facts come from the cache."""

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
        import threading

        LOCK = threading.Lock()

        def tick(n):
            with LOCK:
                return n + 1
        """,
}


def test_clean_fixture_passes_the_guard(tmp_path, monkeypatch, capsys):
    write_project(tmp_path, _FIXTURE)
    monkeypatch.chdir(tmp_path)
    assert timing.main(["src", "--min-speedup", "0", "--warm-runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "warm" in out and "(0 parsed" in out


def test_budget_overrun_fails(tmp_path, monkeypatch, capsys):
    write_project(tmp_path, _FIXTURE)
    monkeypatch.chdir(tmp_path)
    # A zero-second budget cannot be met: the gate must fail loudly.
    monkeypatch.setattr(timing, "WARM_BUDGET_S", 0.0)
    assert timing.main(["src", "--min-speedup", "0", "--warm-runs", "1"]) == 1
    assert "budget" in capsys.readouterr().err
