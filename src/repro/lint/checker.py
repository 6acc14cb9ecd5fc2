"""The checker: file discovery, module naming, per-file rule dispatch.

The library entry points are :func:`lint_file` and :func:`lint_source`
(tests feed fixture snippets straight in).  The whole run, per-file and
project rules over one parse of each file, is
:func:`repro.lint.project.engine.lint_paths`.
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
# rules and the project index must never disagree about a module's name.
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


def parse_error(path: str, exc: SyntaxError) -> Finding:
    """The finding for a file that does not parse (never suppressed)."""
    return Finding(
        rule="parse-error",
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        message=f"cannot parse: {exc.msg}",
        severity=Severity.ERROR,
    )


def check_module(
    ctx: ModuleContext, rules: list[Rule], suppressions: SuppressionIndex
) -> FileReport:
    """Run the per-file ``rules`` that apply to one parsed module."""
    report = FileReport(path=ctx.path)
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
    try:
        ctx = ModuleContext.from_source(source, path=path, module=module)
    except SyntaxError as exc:
        return FileReport(path=path, findings=[parse_error(path, exc)])
    return check_module(ctx, rules, SuppressionIndex.from_lines(ctx.lines))


def lint_file(
    path: Path,
    config: Optional[LintConfig] = None,
    rules: Optional[list[Rule]] = None,
) -> FileReport:
    source = path.read_text(encoding="utf-8")
    return lint_source(
        source,
        path=display_path(path, config),
        module=module_name_for(path),
        config=config,
        rules=rules,
    )


def display_path(path: Path, config: Optional[LintConfig]) -> str:
    """``path`` relative to the config root when it lies under it."""
    if config is not None and config.root is not None:
        try:
            return path.resolve().relative_to(config.root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()
