"""SARIF output is valid 2.1.0 (validated against a schema subset).

The repo adds no dependencies, so instead of jsonschema this test
hand-validates the document against the constraints the official
sarif-schema-2.1.0.json places on the properties we emit: required
members, types, enum values and URI shape.
"""

import json

from repro.lint.cli import main
from repro.lint.sarif import SARIF_SCHEMA, to_sarif

from tests.lint.project.projutil import write_project

_LEVELS = {"none", "note", "warning", "error"}
_SUPPRESSION_KINDS = {"inSource", "external"}


def validate_sarif_2_1_0(doc) -> list:
    """Schema-subset validation; returns a list of violations (empty = ok)."""
    problems = []

    def need(cond, msg):
        if not cond:
            problems.append(msg)

    need(isinstance(doc, dict), "document must be an object")
    if not isinstance(doc, dict):
        return problems
    need(doc.get("version") == "2.1.0", "version must be the string '2.1.0'")
    need(
        doc.get("$schema", SARIF_SCHEMA).startswith("http"),
        "$schema must be a URI",
    )
    runs = doc.get("runs")
    need(isinstance(runs, list) and runs, "runs must be a non-empty array")
    for run in runs or []:
        tool = run.get("tool")
        need(isinstance(tool, dict), "run.tool is required")
        driver = (tool or {}).get("driver")
        need(isinstance(driver, dict), "tool.driver is required")
        if isinstance(driver, dict):
            need(isinstance(driver.get("name"), str), "driver.name must be a string")
            for rule in driver.get("rules", []):
                need(isinstance(rule.get("id"), str), "rule.id must be a string")
                short = rule.get("shortDescription")
                if short is not None:
                    need(
                        isinstance(short.get("text"), str),
                        "shortDescription.text must be a string",
                    )
                conf = rule.get("defaultConfiguration")
                if conf is not None and "level" in conf:
                    need(conf["level"] in _LEVELS, f"bad level {conf['level']!r}")
        for result in run.get("results", []):
            need(isinstance(result.get("ruleId"), str), "result.ruleId required")
            need(result.get("level") in _LEVELS, "result.level must be a level enum")
            message = result.get("message")
            need(
                isinstance(message, dict) and isinstance(message.get("text"), str),
                "result.message.text must be a string",
            )
            if "ruleIndex" in result:
                rules = driver.get("rules", []) if isinstance(driver, dict) else []
                need(
                    isinstance(result["ruleIndex"], int)
                    and 0 <= result["ruleIndex"] < len(rules)
                    and rules[result["ruleIndex"]]["id"] == result["ruleId"],
                    "ruleIndex must point at the matching driver rule",
                )
            for location in result.get("locations", []):
                physical = location.get("physicalLocation")
                need(isinstance(physical, dict), "physicalLocation required")
                if not isinstance(physical, dict):
                    continue
                artifact = physical.get("artifactLocation", {})
                need(
                    isinstance(artifact.get("uri"), str),
                    "artifactLocation.uri must be a string",
                )
                region = physical.get("region", {})
                for key in ("startLine", "startColumn"):
                    if key in region:
                        need(
                            isinstance(region[key], int) and region[key] >= 1,
                            f"region.{key} must be an int >= 1",
                        )
            for suppression in result.get("suppressions", []):
                need(
                    suppression.get("kind") in _SUPPRESSION_KINDS,
                    "suppression.kind must be inSource or external",
                )
            for code_flow in result.get("codeFlows", []):
                thread_flows = code_flow.get("threadFlows")
                need(
                    isinstance(thread_flows, list) and thread_flows,
                    "codeFlow.threadFlows must be a non-empty array",
                )
                for thread_flow in thread_flows or []:
                    steps = thread_flow.get("locations")
                    need(
                        isinstance(steps, list) and steps,
                        "threadFlow.locations must be a non-empty array",
                    )
                    for step in steps or []:
                        location = step.get("location")
                        need(
                            isinstance(location, dict),
                            "threadFlowLocation.location must be an object",
                        )
                        if not isinstance(location, dict):
                            continue
                        physical = location.get("physicalLocation", {})
                        artifact = physical.get("artifactLocation", {})
                        need(
                            isinstance(artifact.get("uri"), str),
                            "code-flow artifactLocation.uri must be a string",
                        )
                        region = physical.get("region", {})
                        if "startLine" in region:
                            need(
                                isinstance(region["startLine"], int)
                                and region["startLine"] >= 1,
                                "code-flow region.startLine must be an int >= 1",
                            )
                        step_message = location.get("message")
                        if step_message is not None:
                            need(
                                isinstance(step_message.get("text"), str),
                                "code-flow location.message.text must be a string",
                            )
    return problems


def test_cli_sarif_output_validates(tmp_path, monkeypatch, capsys):
    write_project(
        tmp_path,
        {
            "pyproject.toml": """\
                [tool.repro-lint.project]
                roots = ["src"]
                """,
            "src/repro/hw/__init__.py": "",
            "src/repro/hw/phy.py": "FRAME_BITS = 12\n",
            "src/repro/hw/ok.py": (
                "FRAME_BITS = 13  # lint: disable=proto-const-drift\n"
            ),
            "src/repro/tpwire/__init__.py": "",
            "src/repro/tpwire/constants.py": "FRAME_BITS = 16\n",
        },
    )
    monkeypatch.chdir(tmp_path)
    exit_code = main(["--format", "sarif", "src"])
    doc = json.loads(capsys.readouterr().out)

    assert exit_code == 1  # the drift finding gates the run
    assert validate_sarif_2_1_0(doc) == []

    results = doc["runs"][0]["results"]
    surviving = [r for r in results if "suppressions" not in r]
    suppressed = [r for r in results if "suppressions" in r]
    assert any(r["ruleId"] == "proto-const-drift" for r in surviving)
    assert len(suppressed) == 1
    assert suppressed[0]["suppressions"] == [{"kind": "inSource"}]
    assert suppressed[0]["locations"][0]["physicalLocation"]["artifactLocation"][
        "uri"
    ] == "src/repro/hw/ok.py"

    rule_ids = {rule["id"] for rule in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert "proto-const-drift" in rule_ids and "wall-clock" in rule_ids


def test_to_sarif_on_empty_run_still_validates():
    doc = to_sarif([], [], [])
    assert validate_sarif_2_1_0(doc) == []
    assert doc["runs"][0]["results"] == []
