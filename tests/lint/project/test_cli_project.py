"""CLI behaviour of the project pass: selection errors, flags, suppressions."""

import json
import textwrap
from pathlib import Path

from repro.lint import lint_file
from repro.lint.checker import iter_python_files
from repro.lint.cli import main
from repro.lint.config import LintConfig

from tests.lint.project.projutil import write_project

DRIFT_PROJECT = {
    "pyproject.toml": """\
        [tool.repro-lint.project]
        roots = ["src"]
        """,
    "src/repro/hw/__init__.py": "",
    "src/repro/hw/phy.py": "FRAME_BITS = 12\n",
    "src/repro/tpwire/__init__.py": "",
    "src/repro/tpwire/constants.py": "FRAME_BITS = 16\n",
}


def test_unknown_rule_suggests_the_closest_id(tmp_path, monkeypatch, capsys):
    write_project(tmp_path, DRIFT_PROJECT)
    monkeypatch.chdir(tmp_path)
    assert main(["--select", "layer-cycl", "src"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule id" in err
    assert "did you mean 'layer-cycle'?" in err


def test_unknown_effect_rule_ids_get_suggestions(tmp_path, monkeypatch, capsys):
    # The effect rule pack registers with the same did-you-mean
    # machinery as everything else.
    write_project(tmp_path, DRIFT_PROJECT)
    monkeypatch.chdir(tmp_path)
    assert main(["--select", "async-unsafe-cal", "src"]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'async-unsafe-call'?" in err


def test_empty_select_is_a_usage_error(tmp_path, monkeypatch, capsys):
    write_project(tmp_path, DRIFT_PROJECT)
    monkeypatch.chdir(tmp_path)
    assert main(["--select", " , ", "src"]) == 2
    assert "names no rules" in capsys.readouterr().err


def test_project_finding_gates_the_exit_code(tmp_path, monkeypatch, capsys):
    write_project(tmp_path, DRIFT_PROJECT)
    monkeypatch.chdir(tmp_path)
    assert main(["--select", "proto-const-drift", "src"]) == 1
    out = capsys.readouterr().out
    assert "proto-const-drift" in out
    assert "src/repro/hw/phy.py" in out


def test_selecting_per_file_rules_skips_cross_module_findings(
    tmp_path, monkeypatch
):
    write_project(tmp_path, DRIFT_PROJECT)
    monkeypatch.chdir(tmp_path)
    assert main(["--select", "mutable-default", "src"]) == 0


def test_selecting_project_rules_skips_per_file_rules(
    tmp_path, monkeypatch, capsys
):
    files = dict(DRIFT_PROJECT)
    # A per-file violation a project-only selection must NOT report.
    files["src/repro/hw/bad.py"] = "def f(x=[]):\n    return x\n"
    write_project(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    assert main(["--select", "proto-const-drift", "src"]) == 1
    out = capsys.readouterr().out
    assert "proto-const-drift" in out
    assert "mutable-default" not in out


def test_file_count_covers_clean_files(tmp_path, monkeypatch, capsys):
    # Counted are the files under the requested paths, not only the ones
    # with findings: the clean fixture below has none.
    files = dict(DRIFT_PROJECT)
    files["src/repro/hw/phy.py"] = "from repro.tpwire.constants import FRAME_BITS\n"
    write_project(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 0
    assert "repro-lint: 4 files, 0 errors" in capsys.readouterr().out
    assert main(["--select", "proto-const-drift", "--format", "json", "src"]) == 0
    assert json.loads(capsys.readouterr().out)["files"] == 4


def test_both_passes_merge_into_one_json_report(tmp_path, monkeypatch, capsys):
    files = dict(DRIFT_PROJECT)
    files["src/repro/hw/bad.py"] = "def f(x=[]):\n    return x\n"
    write_project(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    assert main(["--format", "json", "src"]) == 1
    payload = json.loads(capsys.readouterr().out)
    rules = {finding["rule"] for finding in payload["findings"]}
    assert {"mutable-default", "proto-const-drift"} <= rules


def test_cross_module_suppression_at_the_reporting_file(
    tmp_path, monkeypatch, capsys
):
    # The drift is reported at phy.py, so that is where the pragma lives —
    # the canonical module needs no annotation.
    files = dict(DRIFT_PROJECT)
    files["src/repro/hw/phy.py"] = (
        "FRAME_BITS = 12  # lint: disable=proto-const-drift\n"
    )
    write_project(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 0
    capsys.readouterr()
    assert main(["--format", "json", "src"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert [s["rule"] for s in payload["suppressed"]] == ["proto-const-drift"]


def test_file_level_suppression_covers_project_rules(tmp_path, monkeypatch):
    files = dict(DRIFT_PROJECT)
    files["src/repro/hw/phy.py"] = (
        "# lint: disable-file=proto-const-drift\nFRAME_BITS = 12\n"
    )
    write_project(tmp_path, files)
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 0


def test_iter_python_files_honours_exclusion_globs(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/hw/phy.py": "",
            "src/repro/hw/__pycache__/phy.py": "",
            "src/build/lib/repro/net/agent.py": "",
            "src/repro/net/agent.py": "",
        },
    )
    config = LintConfig(root=tmp_path)
    found = {
        path.relative_to(tmp_path).as_posix()
        for path in iter_python_files([tmp_path / "src"], config)
    }
    assert found == {"src/repro/hw/phy.py", "src/repro/net/agent.py"}


def test_lint_file_reports_display_paths(tmp_path):
    # lint_file is the public single-file entry point (docs/lint.md).
    target = tmp_path / "snippet.py"
    target.write_text(
        textwrap.dedent(
            """\
            def f(x=[]):
                return x
            """
        ),
        encoding="utf-8",
    )
    report = lint_file(target, config=LintConfig(root=tmp_path))
    assert [f.rule for f in report.findings] == ["mutable-default"]
    assert report.findings[0].path == "snippet.py"
    assert Path(report.findings[0].path).is_absolute() is False
