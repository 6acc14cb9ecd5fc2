"""layer-cycle: the acceptance fixture — cycles and DAG violations fire."""

from tests.lint.project.projutil import run_rules, write_project


def test_import_cycle_fires(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/des/__init__.py": "",
            "src/repro/des/a.py": "from repro.des import b\n",
            "src/repro/des/b.py": "from repro.des import a\n",
        },
    )
    findings, _s = run_rules(tmp_path, ["layer-cycle"])
    cycle = [f for f in findings if "import cycle" in f.message]
    assert len(cycle) == 1
    assert "repro.des.a -> repro.des.b -> repro.des.a" in cycle[0].message


def test_function_local_import_breaks_the_cycle(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/des/__init__.py": "",
            "src/repro/des/a.py": "from repro.des import b\n",
            "src/repro/des/b.py": (
                "def lazy():\n    from repro.des import a\n    return a\n"
            ),
        },
    )
    findings, _s = run_rules(tmp_path, ["layer-cycle"])
    assert [f for f in findings if "import cycle" in f.message] == []


def test_upward_layer_edge_fires(tmp_path):
    # des is the bottom layer: importing tpwire from it inverts the DAG.
    write_project(
        tmp_path,
        {
            "src/repro/des/__init__.py": "",
            "src/repro/des/evil.py": "from repro.tpwire import frames\n",
            "src/repro/tpwire/__init__.py": "",
            "src/repro/tpwire/frames.py": "FRAME_BITS = 16\n",
        },
    )
    findings, _s = run_rules(tmp_path, ["layer-cycle"])
    assert len(findings) == 1
    finding = findings[0]
    assert finding.path == "src/repro/des/evil.py"
    assert finding.line == 1
    assert "repro.des" in finding.message and "repro.tpwire" in finding.message


def test_function_local_import_is_still_a_layer_edge(tmp_path):
    # Laziness must not launder an architecture violation.
    write_project(
        tmp_path,
        {
            "src/repro/des/__init__.py": "",
            "src/repro/des/evil.py": (
                "def sneak():\n    from repro.tpwire import frames\n"
                "    return frames\n"
            ),
            "src/repro/tpwire/__init__.py": "",
            "src/repro/tpwire/frames.py": "",
        },
    )
    findings, _s = run_rules(tmp_path, ["layer-cycle"])
    assert len(findings) == 1
    assert findings[0].line == 2


def test_declared_edges_are_allowed(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/tpwire/__init__.py": "",
            "src/repro/tpwire/frames.py": "from repro.des import kernel\n",
            "src/repro/des/__init__.py": "",
            "src/repro/des/kernel.py": "",
            "src/repro/net/__init__.py": "",
            "src/repro/net/agent.py": (
                "from repro.tpwire import frames\nfrom repro.des import kernel\n"
            ),
        },
    )
    findings, _s = run_rules(tmp_path, ["layer-cycle"])
    assert findings == []


def test_layers_option_overrides_the_dag(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/des/__init__.py": "",
            "src/repro/des/evil.py": "from repro.tpwire import frames\n",
            "src/repro/tpwire/__init__.py": "",
            "src/repro/tpwire/frames.py": "",
        },
    )
    findings, _s = run_rules(
        tmp_path,
        ["layer-cycle"],
        rule_options={
            "layer-cycle": {
                "layers": {"repro.des": ["repro.tpwire"], "repro.tpwire": []}
            }
        },
    )
    assert findings == []
