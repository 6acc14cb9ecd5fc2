"""The seeded-regression acceptance test for ``nondet-in-sim``.

A wall-clock read is planted three calls below a scheduler entry,
across three modules; the rule must surface it at the registration
site with the full cross-file call-chain witness, and the SARIF
rendering of that witness must validate against the schema subset.
"""

import json

from repro.lint.cli import main
from repro.lint.sarif import to_sarif

from tests.lint.project.projutil import run_rules, write_project
from tests.lint.project.test_sarif import validate_sarif_2_1_0

_FIXTURE = {
    "src/repro/net/__init__.py": "",
    "src/repro/net/sched.py": """\
        from repro.net.handler import on_timeout

        def setup(sim):
            sim.call_after(1.0, on_timeout, 42)
        """,
    "src/repro/net/handler.py": """\
        from repro.net.stats import latency

        def on_timeout(token):
            return latency(token)
        """,
    "src/repro/net/stats.py": """\
        import time

        def latency(token):
            return stamp() - token

        def stamp():
            return time.time()
        """,
}


def test_planted_wall_clock_three_calls_deep_is_caught(tmp_path):
    write_project(tmp_path, _FIXTURE)
    findings, _s = run_rules(tmp_path, ["nondet-in-sim"])
    assert [f.rule for f in findings] == ["nondet-in-sim"]
    finding = findings[0]

    # Reported where the callback enters the simulator, not at the seed.
    assert finding.path == "src/repro/net/sched.py"
    assert finding.line == 4
    assert "scheduled callback on_timeout" in finding.message
    assert "wall-clock" in finding.message

    # The witness walks registration -> handler -> stats seed.
    notes = [(note, path) for _line, note, path in finding.code_flow]
    assert notes == [
        ("on_timeout scheduled here", "src/repro/net/sched.py"),
        ("calls latency()", "src/repro/net/handler.py"),
        ("calls stamp()", "src/repro/net/stats.py"),
        ("time.time()", "src/repro/net/stats.py"),
    ]


def test_fixing_the_seed_clears_the_finding(tmp_path):
    fixed = dict(_FIXTURE)
    fixed["src/repro/net/stats.py"] = """\
        def latency(token):
            return stamp() - token

        def stamp():
            return 0.0
        """
    write_project(tmp_path, fixed)
    findings, _s = run_rules(tmp_path, ["nondet-in-sim"])
    assert findings == []


def test_cross_file_code_flow_renders_as_valid_sarif(tmp_path):
    write_project(tmp_path, _FIXTURE)
    findings, suppressed = run_rules(tmp_path, ["nondet-in-sim"])
    doc = to_sarif(findings, suppressed, [])
    assert validate_sarif_2_1_0(doc) == []

    steps = doc["runs"][0]["results"][0]["codeFlows"][0]["threadFlows"][0][
        "locations"
    ]
    uris = [
        step["location"]["physicalLocation"]["artifactLocation"]["uri"]
        for step in steps
    ]
    # Each step carries its own file: the chain crosses three modules.
    assert uris == [
        "src/repro/net/sched.py",
        "src/repro/net/handler.py",
        "src/repro/net/stats.py",
        "src/repro/net/stats.py",
    ]


def test_cli_sarif_output_for_the_regression_validates(tmp_path, monkeypatch, capsys):
    write_project(
        tmp_path,
        {
            **_FIXTURE,
            "pyproject.toml": """\
                [tool.repro-lint.project]
                roots = ["src"]
                """,
        },
    )
    monkeypatch.chdir(tmp_path)
    code = main(["src", "--select", "nondet-in-sim", "--format", "sarif"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert validate_sarif_2_1_0(doc) == []
    assert doc["runs"][0]["results"][0]["ruleId"] == "nondet-in-sim"
