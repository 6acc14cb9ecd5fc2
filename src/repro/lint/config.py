"""Configuration: ``[tool.repro-lint]`` in ``pyproject.toml``.

Every key is an options table: one per rule (see each rule), plus
:data:`SHARED_TABLES` read by several rules at once::

    [tool.repro-lint.wall-clock]
    allow-modules = ["repro.core.clock"]

Any other key is a :class:`~repro.lint.errors.ConfigError`.
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.lint.errors import ConfigError
from repro.lint.registry import all_rule_classes

#: Path patterns never linted.
DEFAULT_EXCLUDES = (
    "*.egg-info",
    "__pycache__",
    ".git",
    ".pytest_cache",
    "build",
    "dist",
)

#: Options tables that belong to no single rule: the effect analysis
#: (``repro.lint.effects``) and the project index (``repro.lint.project``).
SHARED_TABLES = ("effects", "project")


@dataclass
class LintConfig:
    """Resolved configuration for one lint run."""

    rule_options: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Directory the config file lives in; paths resolve against it.
    root: Optional[Path] = None

    # -- queries -----------------------------------------------------------

    def is_excluded(self, path: Path) -> bool:
        parts = path.parts
        for pattern in DEFAULT_EXCLUDES:
            if fnmatch.fnmatch(str(path), pattern):
                return True
            if any(fnmatch.fnmatch(part, pattern) for part in parts):
                return True
        return False


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Locate and parse pyproject.toml, walking up from ``start``."""
    start = Path(start) if start is not None else Path.cwd()
    for directory in [start, *start.parents]:
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return _config_from_pyproject(candidate)
    return LintConfig()


def _config_from_pyproject(pyproject: Path) -> LintConfig:
    try:
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"{pyproject}: {exc}") from exc
    section = data.get("tool", {}).get("repro-lint", {})
    return config_from_dict(section, root=pyproject.parent)


def config_from_dict(section: dict, root: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig` from the ``[tool.repro-lint]`` table."""
    known = set(all_rule_classes()).union(SHARED_TABLES)
    config = LintConfig(root=root)
    for key, value in section.items():
        if key not in known or not isinstance(value, dict):
            raise ConfigError(f"unknown [tool.repro-lint] key: {key!r}")
        config.rule_options[key] = value
    return config
