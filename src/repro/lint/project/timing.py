"""The lint timing gate: the warm whole-program pass is fast and exact.

``python -m repro.lint.project.timing [paths] --min-speedup 3`` runs
the full project pass (every rule: concurrency, effects, whole-program)
once against an empty cache and then warm, in one process, and fails
on any of:

* warm findings that differ from the cold ones;
* a warm run that re-parsed any file (summaries come from the cache);
* a warm run that rebuilt the effect call graph (the inference comes
  from the cache's project-digest tier);
* a cold/warm speedup below ``--min-speedup``;
* a warm pass slower than :data:`WARM_BUDGET_S`.

Running in-process keeps interpreter start-up out of both measurements,
so the ratio reflects the cache, not Python.

This is the only module in :mod:`repro.lint` allowed to read the OS
clock (see ``wall-clock`` allow-modules in pyproject): it measures the
linter itself, never simulation behaviour.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

from repro.lint.config import LintConfig, load_config
from repro.lint.project.engine import run_project

#: Wall-clock budget of one warm pass over ``src tests``, in seconds.
WARM_BUDGET_S = 5.0


def _findings_bytes(reports) -> bytes:
    payload = [
        {
            "path": report.path,
            "findings": [f.as_dict() for f in report.findings],
            "suppressed": [f.as_dict() for f in report.suppressed],
        }
        for report in reports
    ]
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def measure(
    paths: list[Path],
    config: LintConfig,
    cache_file: Path,
    warm_runs: int = 3,
) -> dict:
    """Time one cold and ``warm_runs`` warm project passes."""
    options = dict(config.rule_options)
    options["project"] = {
        **options.get("project", {}),
        "cache": str(cache_file),
    }
    config = replace(config, rule_options=options)

    if cache_file.exists():
        cache_file.unlink()
    start = time.perf_counter()
    cold_reports, cold_stats = run_project(paths, config=config)
    cold_seconds = time.perf_counter() - start

    warm_seconds = None
    warm_reports, warm_stats = cold_reports, cold_stats
    for _ in range(max(warm_runs, 1)):
        start = time.perf_counter()
        warm_reports, warm_stats = run_project(paths, config=config)
        elapsed = time.perf_counter() - start
        warm_seconds = elapsed if warm_seconds is None else min(warm_seconds, elapsed)

    return {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else float("inf"),
        "cold_parsed": cold_stats.parsed,
        "warm_parsed": warm_stats.parsed,
        "cold_effects_built": cold_stats.effects_built,
        "warm_effects_built": warm_stats.effects_built,
        "warm_effects_reused": warm_stats.effects_reused,
        "files": warm_stats.files,
        "identical": _findings_bytes(cold_reports) == _findings_bytes(warm_reports),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint-timing",
        description="assert the warm project-pass cache is actually fast",
    )
    parser.add_argument("paths", nargs="*", default=["src"])
    parser.add_argument("--min-speedup", type=float, default=3.0)
    parser.add_argument("--warm-runs", type=int, default=3)
    args = parser.parse_args(argv)

    config = load_config(Path.cwd())
    paths = [Path(p) for p in args.paths]
    with tempfile.TemporaryDirectory(prefix="repro-lint-timing-") as tmp:
        result = measure(
            paths, config, Path(tmp) / "cache.json", warm_runs=args.warm_runs
        )

    print(
        f"project pass over {result['files']} files: "
        f"cold {result['cold_seconds']:.3f}s ({result['cold_parsed']} parsed, "
        f"{result['cold_effects_built']} graphs built), "
        f"warm {result['warm_seconds']:.3f}s ({result['warm_parsed']} parsed, "
        f"{result['warm_effects_built']} graphs built), "
        f"speedup {result['speedup']:.1f}x"
    )
    failures = []
    if not result["identical"]:
        failures.append("warm findings differ from cold findings")
    if result["warm_parsed"] != 0:
        failures.append(f"warm run re-parsed {result['warm_parsed']} files")
    if result["warm_effects_built"] != 0:
        failures.append(
            f"warm run rebuilt {result['warm_effects_built']} call graphs"
        )
    if result["speedup"] < args.min_speedup:
        failures.append(
            f"speedup {result['speedup']:.2f}x < required "
            f"{args.min_speedup:.2f}x"
        )
    if result["warm_seconds"] > WARM_BUDGET_S:
        failures.append(
            f"warm pass took {result['warm_seconds']:.3f}s > budget "
            f"{WARM_BUDGET_S:.3f}s"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
