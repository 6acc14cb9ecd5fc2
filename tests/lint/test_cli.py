"""CLI behaviour and the repo-wide smoke gate.

The smoke tests are the acceptance criterion of the lint PR: the tree
itself must lint clean, and a seeded violation must flip the exit code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_cli(args, cwd):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_repo_src_lints_clean():
    result = _run_cli(["src"], cwd=REPO_ROOT)
    assert result.returncode == 0, result.stdout + result.stderr


def test_repo_tests_and_benchmarks_lint_clean():
    result = _run_cli(["tests", "benchmarks", "examples"], cwd=REPO_ROOT)
    assert result.returncode == 0, result.stdout + result.stderr


def test_repo_has_no_dead_public_api():
    # Warnings leave the exit status at 0, so read the findings.
    result = _run_cli(
        ["--select", "dead-public-api", "--no-cache", "src"], cwd=REPO_ROOT
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "dead-public-api" not in result.stdout, result.stdout


def test_seeded_violation_fails(tmp_path: Path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    pass\n")
    result = _run_cli(["--no-config", str(bad)], cwd=REPO_ROOT)
    assert result.returncode == 1
    assert "mutable-default" in result.stdout


def test_missing_path_is_usage_error(tmp_path: Path):
    result = _run_cli(["--no-config", str(tmp_path / "nope")], cwd=REPO_ROOT)
    assert result.returncode == 2


def test_unknown_rule_is_usage_error(tmp_path: Path):
    good = tmp_path / "ok.py"
    good.write_text("x = 1\n")
    result = _run_cli(
        ["--no-config", "--select", "no-such-rule", str(good)], cwd=REPO_ROOT
    )
    assert result.returncode == 2


def test_json_format(tmp_path: Path):
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    work()\nexcept:\n    pass\n")
    result = _run_cli(
        ["--no-config", "--format", "json", "--select", "broad-except", str(bad)],
        cwd=REPO_ROOT,
    )
    payload = json.loads(result.stdout)
    assert result.returncode == 1
    assert payload["findings"][0]["rule"] == "broad-except"
    assert payload["files"] == 1


def test_select_limits_cli_run(tmp_path: Path):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(x=[]):\n    pass\n")
    result = _run_cli(
        ["--no-config", "--select", "wall-clock", str(bad)], cwd=REPO_ROOT
    )
    assert result.returncode == 0


def test_list_rules_names_every_builtin_rule(capsys):
    assert main(["--list-rules", "--no-config"]) == 0
    output = capsys.readouterr().out
    for rule_id in (
        "wall-clock",
        "unseeded-random",
        "layer-purity",
        "frame-bounds",
        "float-time-eq",
        "error-hierarchy",
        "mutable-default",
        "broad-except",
    ):
        assert rule_id in output
