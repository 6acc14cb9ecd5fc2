"""Entry point: ``python3 benchmarks/e2e/run.py [options]`` from the
repository root (options in ``cli.py`` and README.md)."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: no src/repro under {ROOT}; run from a checkout of the repository")
# Replace this script's own directory on the path with the checkout's
# sources and root, so the benchmark imports as the package it is.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
