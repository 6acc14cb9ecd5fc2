"""proto-const-drift: the acceptance fixture — drift and re-derivation fire."""

from tests.lint.project.projutil import run_rules, write_project

CANONICAL = {
    "src/repro/tpwire/__init__.py": "",
    "src/repro/tpwire/constants.py": """\
        FRAME_BITS = 16
        DATA_BITS = 8
        HEADER_BITS = FRAME_BITS - DATA_BITS
        CRC4_POLY = 0b10011
        """,
    "src/repro/hw/__init__.py": "",
}


def test_value_drift_fires(tmp_path):
    files = dict(CANONICAL)
    files["src/repro/hw/phy.py"] = "FRAME_BITS = 12\n"
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["proto-const-drift"])
    assert len(findings) == 1
    assert findings[0].path == "src/repro/hw/phy.py"
    assert "drifts" in findings[0].message
    assert "16" in findings[0].message and "12" in findings[0].message


def test_matching_literal_still_fires(tmp_path):
    # Today's value matching is luck, not traceability.
    files = dict(CANONICAL)
    files["src/repro/hw/phy.py"] = "FRAME_BITS = 16\n"
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["proto-const-drift"])
    assert len(findings) == 1
    assert "re-derived locally" in findings[0].message


def test_reimport_and_derivation_are_clean(tmp_path):
    files = dict(CANONICAL)
    files["src/repro/hw/phy.py"] = """\
        from repro.tpwire.constants import FRAME_BITS
        from repro.tpwire import constants

        DATA_BITS = constants.DATA_BITS
        HEADER_BITS = FRAME_BITS - constants.DATA_BITS
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["proto-const-drift"])
    assert findings == []


def test_derived_with_wrong_value_fires_as_drift(tmp_path):
    files = dict(CANONICAL)
    files["src/repro/hw/phy.py"] = """\
        from repro.tpwire.constants import FRAME_BITS

        HEADER_BITS = FRAME_BITS - 4
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["proto-const-drift"])
    assert len(findings) == 1
    assert "HEADER_BITS" in findings[0].message and "drifts" in findings[0].message


def test_indirect_chain_through_another_module_traces(tmp_path):
    files = dict(CANONICAL)
    files["src/repro/tpwire/frames.py"] = """\
        from repro.tpwire.constants import FRAME_BITS
        """
    files["src/repro/hw/phy.py"] = """\
        from repro.tpwire.frames import FRAME_BITS

        DATA_BITS = FRAME_BITS - 8
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["proto-const-drift"])
    assert findings == []


def test_modules_outside_scope_are_ignored(tmp_path):
    files = dict(CANONICAL)
    files["src/repro/core/__init__.py"] = ""
    files["src/repro/core/free.py"] = "FRAME_BITS = 99\n"
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["proto-const-drift"])
    assert findings == []


def test_untracked_names_are_ignored(tmp_path):
    files = dict(CANONICAL)
    files["src/repro/hw/phy.py"] = "LOCAL_TUNING = 42\n"
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["proto-const-drift"])
    assert findings == []


def test_missing_canonical_module_disables_the_rule(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/hw/__init__.py": "",
            "src/repro/hw/phy.py": "FRAME_BITS = 12\n",
        },
    )
    findings, _s = run_rules(tmp_path, ["proto-const-drift"])
    assert findings == []


def test_track_option_narrows_the_watched_set(tmp_path):
    files = dict(CANONICAL)
    files["src/repro/hw/phy.py"] = "FRAME_BITS = 12\nDATA_BITS = 3\n"
    write_project(tmp_path, files)
    findings, _s = run_rules(
        tmp_path,
        ["proto-const-drift"],
        rule_options={"proto-const-drift": {"track": ["DATA_BITS"]}},
    )
    assert len(findings) == 1
    assert "DATA_BITS" in findings[0].message
