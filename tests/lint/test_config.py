"""Config layer: pyproject parsing, selection, excludes."""

from pathlib import Path

import pytest

from repro.lint import (
    ConfigError,
    LintConfig,
    RegistryError,
    instantiate,
    load_config,
)
from repro.lint.config import config_from_dict


def test_select_limits_rules():
    rules = instantiate(LintConfig(), select=["wall-clock"])
    assert [rule.id for rule in rules] == ["wall-clock"]


def test_unknown_rule_id_rejected():
    with pytest.raises(RegistryError):
        instantiate(LintConfig(), select=["no-such-rule"])


def test_unknown_top_level_key_rejected():
    # Every key must be an options table named after a rule (or a shared
    # one): a typo, a bare list and a table naming no rule are refused.
    for key, value in [
        ("selct", ["wall-clock"]),
        ("select", ["wall-clock"]),
        ("ignore", ["float-time-eq"]),
        ("exclude", ["*/vendor/*"]),
        ("severity", {"wall-clock": "warning"}),
        ("per-file-ignores", {"benchmarks/*": ["wall-clock"]}),
    ]:
        with pytest.raises(ConfigError, match=f"unknown .* key: {key!r}"):
            config_from_dict({key: value})


def test_default_excludes_cover_artifacts():
    config = LintConfig()
    assert config.is_excluded(Path("src/repro.egg-info/thing.py"))
    assert config.is_excluded(Path("src/repro/__pycache__/x.py"))
    assert not config.is_excluded(Path("src/repro/core/space.py"))


def test_load_config_reads_repo_pyproject():
    config = load_config(Path(__file__).resolve().parents[2])
    assert config.rule_options["wall-clock"]["allow-modules"] == [
        "repro.core.clock",
        "repro.lint.project.timing",
    ]
    assert config.rule_options["effects"]["barrier"] == [
        "repro.core.transports:SocketConnection.*",
        "repro.board.gdb_stub:GdbStub.feed",
    ]
