"""Command-line front end: ``python -m repro.lint [paths]``.

Runs :func:`repro.lint.project.engine.lint_paths`: one pass that parses
each file once, runs the per-file rules (``wall-clock``,
``frame-bounds``, ...) on it and summarises it for the whole-program
rules (``layer-cycle``, ``proto-const-drift``, ...).  The project index
always covers the configured roots; the CLI paths only filter which
findings are reported.

Exit status: 0 when clean (or warnings only), 1 when any error-severity
finding survives suppression, 2 on usage/configuration problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from repro.lint.config import LintConfig, load_config
from repro.lint.errors import LintError
from repro.lint.findings import Severity
from repro.lint.project.engine import lint_paths
from repro.lint.registry import all_rule_classes, instantiate, is_project_rule
from repro.lint.sarif import to_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism & protocol-invariant checker for the "
            "tuplespace reproduction"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore pyproject.toml and run with built-in defaults",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: every rule)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print findings silenced by '# lint: disable' comments",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="print findings only, no summary line",
    )
    return parser


def _list_rules(config: LintConfig) -> int:
    classes = all_rule_classes()
    width = max(len(rule_id) for rule_id in classes)
    for rule_id in sorted(classes):
        rule = classes[rule_id](config)
        scope = ", ".join(rule.scope) if rule.scope else "all modules"
        kind = "project" if is_project_rule(classes[rule_id]) else "file"
        print(f"{rule_id:<{width}}  [{rule.severity.value}, {kind}] {rule.summary}")
        print(f"{'':<{width}}  scope: {scope}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = LintConfig(root=Path.cwd()) if args.no_config else load_config()

        if args.list_rules:
            return _list_rules(config)

        select = None
        if args.select is not None:
            select = [rule.strip() for rule in args.select.split(",") if rule.strip()]
            if not select:
                print(
                    "repro-lint: --select given but names no rules",
                    file=sys.stderr,
                )
                return 2

        paths = [Path(p) for p in args.paths]
        missing = [p for p in paths if not p.exists()]
        if missing:
            print(
                f"repro-lint: no such path: {', '.join(map(str, missing))}",
                file=sys.stderr,
            )
            return 2

        reports = lint_paths(paths, config=config, select=select)
    except LintError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    findings = sorted(
        (f for report in reports for f in report.findings),
        key=lambda f: (f.path, f.line, f.col, f.rule),
    )
    suppressed = sorted(
        (f for report in reports for f in report.suppressed),
        key=lambda f: (f.path, f.line, f.col, f.rule),
    )
    files = len(reports)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.as_dict() for f in findings],
                    "suppressed": [f.as_dict() for f in suppressed],
                    "files": files,
                },
                indent=2,
            )
        )
    elif args.format == "sarif":
        rules = instantiate(config, select=select) + instantiate(
            config, select=select, project=True
        )
        print(json.dumps(to_sarif(findings, suppressed, rules), indent=2))
    else:
        for finding in findings:
            print(finding.format())
        if args.show_suppressed:
            for finding in suppressed:
                print(f"{finding.format()} (suppressed)")
        if not args.quiet:
            errors = sum(1 for f in findings if f.severity is Severity.ERROR)
            warnings = len(findings) - errors
            print(
                f"repro-lint: {files} files, {errors} errors, "
                f"{warnings} warnings, {len(suppressed)} suppressed"
            )

    return 1 if any(f.severity is Severity.ERROR for f in findings) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
