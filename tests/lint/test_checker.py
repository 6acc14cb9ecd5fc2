"""Checker plumbing: module naming, discovery, registry, parse errors."""

import ast
from pathlib import Path

import pytest

from repro.lint import LintConfig, Rule, lint_paths, lint_source, register
from repro.lint.checker import iter_python_files, module_name_for
from repro.lint.errors import RegistryError


def test_module_name_anchored_on_repro():
    assert module_name_for(Path("src/repro/core/clock.py")) == "repro.core.clock"
    assert module_name_for(Path("src/repro/des/__init__.py")) == "repro.des"
    assert module_name_for(Path("tests/lint/test_checker.py")) == (
        "tests.lint.test_checker"
    )
    assert module_name_for(Path("/tmp/anywhere/snippet.py")) == "snippet"


def test_parse_error_is_a_finding():
    report = lint_source("def broken(:\n", module="repro.fixture")
    assert [f.rule for f in report.findings] == ["parse-error"]
    assert report.failed


def test_iter_python_files_skips_excluded(tmp_path: Path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "good.py").write_text("x = 1\n")
    cache = tmp_path / "pkg" / "__pycache__"
    cache.mkdir()
    (cache / "bad.py").write_text("x = 1\n")
    files = list(iter_python_files([tmp_path], LintConfig()))
    assert [f.name for f in files] == ["good.py"]


def test_lint_paths_runs_over_directory(tmp_path: Path):
    target = tmp_path / "mod.py"
    target.write_text("def f(x=[]):\n    pass\n")
    reports = lint_paths([tmp_path], config=LintConfig())
    assert len(reports) == 1
    assert [f.rule for f in reports[0].findings] == ["mutable-default"]


def test_lint_paths_without_a_root_parses_only_the_paths(tmp_path: Path, monkeypatch):
    """A config with no root has no project roots: the index covers the
    one file linted, not the tree under the working directory."""
    (tmp_path / "mod.py").write_text("x = 1\n")
    real_parse = ast.parse
    parsed = []

    def parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(str(filename))
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", parse)
    monkeypatch.chdir(Path(__file__).resolve().parents[2])
    reports = lint_paths([tmp_path], config=LintConfig())
    assert [report.findings for report in reports] == [[]]
    # ``frame-bounds`` also reads the protocol constants when it is set up.
    linted = [name for name in parsed if not name.endswith("tpwire/constants.py")]
    assert linted == [(tmp_path / "mod.py").as_posix()]


def test_duplicate_rule_id_rejected():
    with pytest.raises(RegistryError):

        @register
        class Duplicate(Rule):  # noqa: N801
            id = "wall-clock"
            summary = "duplicate"

            def check(self, ctx):
                return iter(())


def test_rule_without_id_rejected():
    with pytest.raises(RegistryError):

        @register
        class Nameless(Rule):
            summary = "no id"

            def check(self, ctx):
                return iter(())
