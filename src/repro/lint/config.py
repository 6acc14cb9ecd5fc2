"""Configuration: ``[tool.repro-lint]`` in ``pyproject.toml``.

Recognised keys (all optional)::

    [tool.repro-lint]
    select = ["wall-clock", ...]      # enable only these rules
    ignore = ["float-time-eq", ...]   # disable these rules
    exclude = ["*.egg-info", ...]     # path patterns never linted

    [tool.repro-lint.severity]
    float-time-eq = "warning"         # downgrade a rule

    [tool.repro-lint.per-file-ignores]
    "benchmarks/*" = ["wall-clock"]   # rule ids ignored for a path glob

    [tool.repro-lint.wall-clock]      # per-rule options (see each rule)
    allow-modules = ["repro.core.clock"]

Parsing uses :mod:`tomllib` (Python 3.11+).  On 3.10, where tomllib does
not exist and this repo adds no third-party dependencies, a minimal
built-in parser covers the subset above (tables, strings, ints, bools,
string/int lists).
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.lint.errors import ConfigError
from repro.lint.findings import Severity

try:  # Python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on 3.10
    _toml = None

#: Path patterns excluded from linting regardless of configuration.
DEFAULT_EXCLUDES = (
    "*.egg-info",
    "__pycache__",
    ".git",
    ".pytest_cache",
    "build",
    "dist",
)


@dataclass
class LintConfig:
    """Resolved configuration for one lint run."""

    select: Optional[list[str]] = None
    ignore: list[str] = field(default_factory=list)
    exclude: list[str] = field(default_factory=lambda: list(DEFAULT_EXCLUDES))
    severities: dict[str, Severity] = field(default_factory=dict)
    per_file_ignores: dict[str, list[str]] = field(default_factory=dict)
    rule_options: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Directory the config file lives in; paths resolve against it.
    root: Optional[Path] = None

    # -- queries -----------------------------------------------------------

    def is_excluded(self, path: Path) -> bool:
        parts = path.parts
        for pattern in self.exclude:
            if fnmatch.fnmatch(str(path), pattern):
                return True
            if any(fnmatch.fnmatch(part, pattern) for part in parts):
                return True
        return False

    def ignored_rules_for(self, path: str) -> set[str]:
        """Rule ids suppressed for ``path`` by per-file-ignores globs."""
        normalized = path.replace("\\", "/")
        ignored: set[str] = set()
        for pattern, rules in self.per_file_ignores.items():
            if fnmatch.fnmatch(normalized, pattern):
                ignored.update(rules)
        return ignored


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Locate and parse pyproject.toml, walking up from ``start``."""
    start = Path(start) if start is not None else Path.cwd()
    if start.is_file():
        return _config_from_pyproject(start)
    for directory in [start, *start.parents]:
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return _config_from_pyproject(candidate)
    return LintConfig()


def _config_from_pyproject(pyproject: Path) -> LintConfig:
    text = pyproject.read_text(encoding="utf-8")
    if _toml is not None:
        try:
            data = _toml.loads(text)
        except _toml.TOMLDecodeError as exc:
            raise ConfigError(f"{pyproject}: {exc}") from exc
    else:  # pragma: no cover - 3.10 fallback
        data = _parse_minimal_toml(text)
    section = data.get("tool", {}).get("repro-lint", {})
    return config_from_dict(section, root=pyproject.parent)


def config_from_dict(section: dict, root: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig` from the ``[tool.repro-lint]`` table."""
    config = LintConfig(root=root)
    section = dict(section)

    select = section.pop("select", None)
    if select is not None:
        config.select = _string_list("select", select)
    config.ignore = _string_list("ignore", section.pop("ignore", []))
    config.exclude = list(DEFAULT_EXCLUDES) + _string_list(
        "exclude", section.pop("exclude", [])
    )

    for rule_id, value in dict(section.pop("severity", {})).items():
        try:
            config.severities[rule_id] = Severity(value)
        except ValueError:
            raise ConfigError(
                f"severity.{rule_id}: expected 'error' or 'warning', got {value!r}"
            ) from None

    for pattern, rules in dict(section.pop("per-file-ignores", {})).items():
        config.per_file_ignores[pattern] = _string_list(
            f"per-file-ignores.{pattern}", rules
        )

    # Every remaining sub-table is per-rule options.
    for key, value in section.items():
        if isinstance(value, dict):
            config.rule_options[key] = value
        else:
            raise ConfigError(f"unknown [tool.repro-lint] key: {key!r}")
    return config


def _string_list(key: str, value: Any) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{key}: expected a list of strings, got {value!r}")
    return list(value)


# -- minimal TOML fallback (Python 3.10, no tomllib, no new deps) ----------

_SECTION_RE = re.compile(r"^\[([^\]]+)\]\s*$")
_KEY_RE = re.compile(r'^\s*(?:"([^"]+)"|([A-Za-z0-9_\-]+))\s*=\s*(.+)$')


def _parse_minimal_toml(text: str) -> dict:
    """Parse the TOML subset the lint config uses.

    Supports ``[dotted.tables]``, quoted/bare keys, string/int/bool
    scalars and (possibly multi-line) homogeneous lists.  Not a general
    TOML parser — just enough to read ``[tool.repro-lint]`` on 3.10.
    """
    data: dict = {}
    table = data
    pending: Optional[tuple[str, str]] = None  # (key, accumulated list text)
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if pending is not None:
            key, acc = pending
            acc += " " + line
            if _balanced(acc):
                table[key] = _parse_value(acc)
                pending = None
            else:
                pending = (key, acc)
            continue
        if not line or line.startswith("#"):
            continue
        match = _SECTION_RE.match(line)
        if match:
            table = data
            for part in _split_table_name(match.group(1)):
                table = table.setdefault(part, {})
            continue
        match = _KEY_RE.match(line)
        if not match:
            continue
        key = match.group(1) or match.group(2)
        value = match.group(3).strip()
        if value.startswith("[") and not _balanced(value):
            pending = (key, value)
        else:
            table[key] = _parse_value(value)
    return data


def _split_table_name(name: str) -> list[str]:
    parts, current, quoted = [], "", False
    for char in name:
        if char == '"':
            quoted = not quoted
        elif char == "." and not quoted:
            parts.append(current)
            current = ""
        else:
            current += char
    parts.append(current)
    return [part.strip() for part in parts]


def _balanced(value: str) -> bool:
    depth = 0
    in_string = False
    for char in value.split("#")[0]:
        if char == '"':
            in_string = not in_string
        elif not in_string:
            depth += {"[": 1, "]": -1}.get(char, 0)
    return depth == 0


def _parse_value(value: str) -> Any:
    value = value.strip()
    if value.startswith("["):
        inner = value[value.index("[") + 1 : value.rindex("]")]
        items = [item.strip() for item in _split_items(inner)]
        return [_parse_value(item) for item in items if item]
    if value.startswith('"'):
        end = value.index('"', 1)
        return value[1:end]
    if value in ("true", "false"):
        return value == "true"
    stripped = value.split("#")[0].strip()
    try:
        return int(stripped, 0)
    except ValueError:
        raise ConfigError(f"cannot parse TOML value: {value!r}") from None


def _split_items(inner: str) -> list[str]:
    items, current, in_string = [], "", False
    for char in inner:
        if char == '"':
            in_string = not in_string
            current += char
        elif char == "," and not in_string:
            items.append(current)
            current = ""
        else:
            current += char
    items.append(current)
    return items
