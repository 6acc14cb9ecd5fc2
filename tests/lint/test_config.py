"""Config layer: pyproject parsing, selection, severity, excludes."""

from pathlib import Path

import pytest

from repro.lint import (
    ConfigError,
    LintConfig,
    RegistryError,
    config_from_dict,
    instantiate,
    lint_source,
    load_config,
)
from repro.lint.config import _parse_minimal_toml
from repro.lint.findings import Severity


def test_select_limits_rules():
    config = config_from_dict({"select": ["wall-clock"]})
    rules = instantiate(config)
    assert [rule.id for rule in rules] == ["wall-clock"]


def test_ignore_drops_rules():
    config = config_from_dict({"ignore": ["float-time-eq"]})
    rule_ids = {rule.id for rule in instantiate(config)}
    assert "float-time-eq" not in rule_ids
    assert "wall-clock" in rule_ids


def test_unknown_rule_id_rejected():
    config = config_from_dict({"select": ["no-such-rule"]})
    with pytest.raises(RegistryError):
        instantiate(config)


def test_severity_override():
    config = config_from_dict({"severity": {"wall-clock": "warning"}})
    report = lint_source(
        "import time\ntime.sleep(1)\n",
        module="repro.fixture",
        config=config,
        rules=instantiate(config, select=["wall-clock"]),
    )
    assert [f.severity for f in report.findings] == [Severity.WARNING]
    assert not report.failed


def test_bad_severity_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"severity": {"wall-clock": "fatal"}})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"selct": ["wall-clock"]})


def test_per_file_ignores():
    config = config_from_dict(
        {"per-file-ignores": {"benchmarks/*": ["wall-clock"]}}
    )
    rules = instantiate(config, select=["wall-clock"])
    ignored = lint_source(
        "import time\ntime.sleep(1)\n",
        path="benchmarks/bench_x.py",
        module="repro.fixture",
        config=config,
        rules=rules,
    )
    linted = lint_source(
        "import time\ntime.sleep(1)\n",
        path="src/repro/thing.py",
        module="repro.fixture",
        config=config,
        rules=rules,
    )
    assert ignored.findings == []
    assert [f.rule for f in linted.findings] == ["wall-clock"]


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


def test_minimal_toml_parser_subset():
    data = _parse_minimal_toml(
        """
        [tool.repro-lint]
        select = ["a", "b"]
        ignore = []

        [tool.repro-lint.severity]
        a = "warning"

        [tool.repro-lint."per-file-ignores"]
        "tests/*" = [
            "a",
            "b",
        ]

        [tool.repro-lint.frame-bounds]
        max = 0xFF
        enabled = true
        """
    )
    section = data["tool"]["repro-lint"]
    assert section["select"] == ["a", "b"]
    assert section["ignore"] == []
    assert section["severity"] == {"a": "warning"}
    assert section["per-file-ignores"] == {"tests/*": ["a", "b"]}
    assert section["frame-bounds"] == {"max": 0xFF, "enabled": True}
