"""The engine: indexing, constant propagation, the one pass."""

from repro.lint.project.engine import build_index

from tests.lint.project.projutil import project_config, run_rules, write_project

CLEAN_PROJECT = {
    "src/repro/tpwire/__init__.py": "",
    "src/repro/tpwire/constants.py": """\
        FRAME_BITS = 16
        DATA_BITS = 8
        HEADER_BITS = FRAME_BITS - DATA_BITS
        """,
    "src/repro/tpwire/frames.py": """\
        from repro.tpwire.constants import FRAME_BITS, HEADER_BITS
        """,
    "src/repro/hw/__init__.py": "",
    "src/repro/hw/phy.py": """\
        from repro.tpwire import constants

        FRAME_BITS = constants.FRAME_BITS
        """,
}


def test_editing_canonical_invalidates_dependent_envs(tmp_path):
    # Each run recomputes every constant environment from the files as
    # they are: editing the canonical module changes a dependent's
    # propagated value, and with it the dependent's finding.
    files = dict(CLEAN_PROJECT)
    # Traces to the canonical module, and today's value matches it.
    files["src/repro/hw/phy.py"] = """\
        from repro.tpwire import constants

        FRAME_BITS = constants.DATA_BITS * 2
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["proto-const-drift"])
    assert findings == []

    constants = tmp_path / "src/repro/tpwire/constants.py"
    constants.write_text(
        constants.read_text().replace("DATA_BITS = 8", "DATA_BITS = 9")
    )
    findings, _s = run_rules(tmp_path, ["proto-const-drift"])
    assert [(f.path, f.message) for f in findings] == [
        (
            "src/repro/hw/phy.py",
            "FRAME_BITS = 18 drifts from repro.tpwire.constants.FRAME_BITS = 16",
        )
    ]


def test_cli_paths_filter_reporting_not_indexing(tmp_path):
    files = dict(CLEAN_PROJECT)
    files["src/repro/hw/rogue.py"] = "FRAME_BITS = 99\n"
    write_project(tmp_path, files)

    # Linting only the clean file: the index still contains the rogue
    # module (same roots), but its finding is not reported.
    findings, _suppressed = run_rules(
        tmp_path,
        ["proto-const-drift"],
        paths=[tmp_path / "src/repro/tpwire/frames.py"],
    )
    assert findings == []

    findings, _suppressed = run_rules(tmp_path, ["proto-const-drift"])
    assert len(findings) == 1
    assert findings[0].path == "src/repro/hw/rogue.py"
    assert findings[0].rule == "proto-const-drift"


def test_constant_value_follows_aliases_and_arithmetic(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/tpwire/__init__.py": "",
            "src/repro/tpwire/constants.py": "FRAME_BITS = 16\nDATA_BITS = 8\n",
            "src/repro/tpwire/derived.py": """\
                from repro.tpwire.constants import FRAME_BITS as FB
                import repro.tpwire.constants as consts

                HEADER = FB - consts.DATA_BITS
                SHIFTED = 1 << consts.DATA_BITS
                """,
        },
    )
    index = build_index([tmp_path / "src"], project_config(tmp_path))
    assert index.constant_value("repro.tpwire.derived", "HEADER") == 8
    assert index.constant_value("repro.tpwire.derived", "SHIFTED") == 256
    env = index.const_env("repro.tpwire.derived")
    assert env["HEADER"] == 8


def test_import_cycle_terminates_constant_evaluation(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/des/__init__.py": "",
            "src/repro/des/a.py": "from repro.des.b import Y\nX = Y\n",
            "src/repro/des/b.py": "from repro.des.a import X\nY = X\n",
        },
    )
    index = build_index([tmp_path / "src"], project_config(tmp_path))
    assert index.constant_value("repro.des.a", "X") is None


def test_parse_error_does_not_crash_the_pass(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/des/__init__.py": "",
            "src/repro/des/broken.py": "def nope(:\n",
        },
    )
    findings, _suppressed = run_rules(tmp_path, ["layer-cycle"])
    # The one parse reports the error; the project rules still run.
    assert [(f.rule, f.path) for f in findings] == [
        ("parse-error", "src/repro/des/broken.py")
    ]
