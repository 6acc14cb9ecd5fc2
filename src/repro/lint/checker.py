"""The checker: file discovery, module naming, rule dispatch.

The entry points are :func:`lint_paths` (CLI), :func:`lint_file` and
:func:`lint_source` (tests feed fixture snippets straight in).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Optional

from repro.lint.config import LintConfig
from repro.lint.context import ModuleContext
from repro.lint.findings import FileReport, Finding, Severity
from repro.lint.registry import Rule, instantiate
from repro.lint.suppressions import SuppressionIndex

# Single source of truth for path -> dotted-module mapping: the per-file
# and project passes must never disagree about a module's name.
from repro.lint.project.resolver import module_name_for  # noqa: F401


def iter_python_files(paths: list[Path], config: LintConfig) -> Iterator[Path]:
    """Yield every lintable ``.py`` file under ``paths``, deterministically."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        else:
            candidates = sorted(path.rglob("*.py"))
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen or config.is_excluded(candidate):
                continue
            seen.add(resolved)
            yield candidate


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    module: str = "repro.fixture",
    config: Optional[LintConfig] = None,
    rules: Optional[list[Rule]] = None,
) -> FileReport:
    """Lint an in-memory snippet (the unit-test entry point)."""
    config = config if config is not None else LintConfig()
    if rules is None:
        rules = instantiate(config)
    report = FileReport(path=path)
    try:
        ctx = ModuleContext.from_source(source, path=path, module=module)
    except SyntaxError as exc:
        report.findings.append(
            Finding(
                rule="parse-error",
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"cannot parse: {exc.msg}",
                severity=Severity.ERROR,
            )
        )
        return report

    suppressions = SuppressionIndex.from_lines(ctx.lines)
    collected: list[Finding] = []
    for rule in rules:
        if rule.applies_to(ctx):
            collected.extend(rule.check(ctx))
    for finding in sorted(collected, key=lambda f: (f.line, f.col, f.rule)):
        if suppressions.suppresses(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    return report


def lint_file(
    path: Path,
    config: Optional[LintConfig] = None,
    rules: Optional[list[Rule]] = None,
) -> FileReport:
    source = path.read_text(encoding="utf-8")
    display = _display_path(path, config)
    return lint_source(
        source,
        path=display,
        module=module_name_for(path),
        config=config,
        rules=rules,
    )


def lint_paths(
    paths: list[Path],
    config: Optional[LintConfig] = None,
    select: Optional[list[str]] = None,
) -> list[FileReport]:
    """Lint every file under ``paths``; returns one report per file."""
    config = config if config is not None else LintConfig()
    rules = instantiate(config, select=select)
    return [
        lint_file(path, config=config, rules=rules)
        for path in iter_python_files(paths, config)
    ]


def _display_path(path: Path, config: Optional[LintConfig]) -> str:
    if config is not None and config.root is not None:
        try:
            return path.resolve().relative_to(config.root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()
