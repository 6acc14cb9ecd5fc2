"""Helpers for building fixture repos and running project rules on them.

Fixtures are laid out as ``<tmp>/src/repro/...`` so the resolver's
anchor heuristic assigns real ``repro.*`` module names — the project
rules' default scopes then apply exactly as they do on the real tree.
"""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Optional

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.project.engine import lint_paths


def write_project(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write dedented fixture files under ``tmp_path``; returns the root."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


def project_config(
    tmp_path: Path, rule_options: Optional[dict] = None
) -> LintConfig:
    options = {"project": {"roots": ["src"]}}
    options.update(rule_options or {})
    return LintConfig(root=tmp_path, rule_options=options)


def run_rules(
    tmp_path: Path,
    select: list[str],
    *,
    rule_options: Optional[dict] = None,
    paths: Optional[list[Path]] = None,
) -> tuple[list[Finding], list[Finding]]:
    """Run selected rules over the fixture; returns (findings, suppressed)."""
    reports = lint_paths(
        paths if paths is not None else [tmp_path / "src"],
        config=project_config(tmp_path, rule_options),
        select=select,
    )
    findings = [f for report in reports for f in report.findings]
    suppressed = [f for report in reports for f in report.suppressed]
    return findings, suppressed
