"""exception-flow: stray definitions, cross-layer raises, stale docs."""

from tests.lint.project.projutil import run_rules, write_project

ERRORS = {
    "src/repro/des/__init__.py": "",
    "src/repro/des/errors.py": """\
        class SimError(Exception):
            pass
        """,
    "src/repro/net/__init__.py": "",
    "src/repro/net/errors.py": """\
        class NetError(Exception):
            pass
        """,
}


def test_stray_exception_class_fires(tmp_path):
    files = dict(ERRORS)
    files["src/repro/des/kernel.py"] = """\
        class KernelPanic(Exception):
            pass
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["exception-flow"])
    assert len(findings) == 1
    assert findings[0].path == "src/repro/des/kernel.py"
    assert "KernelPanic" in findings[0].message
    assert "repro.des.errors" in findings[0].message


def test_subclass_of_project_error_outside_errors_module_fires(tmp_path):
    files = dict(ERRORS)
    files["src/repro/des/kernel.py"] = """\
        from repro.des.errors import SimError

        class DeadlockError(SimError):
            pass
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["exception-flow"])
    assert len(findings) == 1
    assert "DeadlockError" in findings[0].message


def test_classes_in_the_errors_module_are_clean(tmp_path):
    files = dict(ERRORS)
    files["src/repro/des/errors.py"] = """\
        class SimError(Exception):
            pass

        class DeadlockError(SimError):
            pass
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["exception-flow"])
    assert findings == []


def test_non_exception_classes_are_ignored(tmp_path):
    files = dict(ERRORS)
    files["src/repro/des/kernel.py"] = """\
        class Scheduler:
            pass
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["exception-flow"])
    assert findings == []


def test_cross_layer_raise_fires(tmp_path):
    files = dict(ERRORS)
    files["src/repro/net/agent.py"] = """\
        from repro.des.errors import SimError

        def poll():
            raise SimError("not ours to raise")
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["exception-flow"])
    assert len(findings) == 1
    assert findings[0].path == "src/repro/net/agent.py"
    assert "repro.des.errors" in findings[0].message


def test_owners_option_permits_declared_flows(tmp_path):
    files = dict(ERRORS)
    files["src/repro/net/agent.py"] = """\
        from repro.des.errors import SimError

        def poll():
            raise SimError("declared as allowed")
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(
        tmp_path,
        ["exception-flow"],
        rule_options={
            "exception-flow": {
                "owners": {
                    "repro.des": ["repro.des.errors"],
                    "repro.net": ["repro.net.errors", "repro.des.errors"],
                }
            }
        },
    )
    assert findings == []


def test_own_layer_raise_is_clean(tmp_path):
    files = dict(ERRORS)
    files["src/repro/net/agent.py"] = """\
        from repro.net.errors import NetError

        def poll():
            raise NetError("ours")
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["exception-flow"])
    assert findings == []


def test_stale_documented_raises_fires(tmp_path):
    files = dict(ERRORS)
    files["src/repro/net/agent.py"] = """\
        from repro.net.errors import NetError

        def poll():
            '''Poll the wire.

            Raises:
                NetError: allegedly.
            '''
            return 1
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["exception-flow"])
    assert len(findings) == 1
    assert "documents raising NetError" in findings[0].message


def test_documented_raise_satisfied_by_an_import_is_clean(tmp_path):
    files = dict(ERRORS)
    files["src/repro/net/errors.py"] = """\
        class NetError(Exception):
            pass

        def fail():
            raise NetError("boom")
        """
    files["src/repro/net/agent.py"] = """\
        from repro.net import errors

        def poll():
            '''Poll the wire.

            Raises:
                NetError: via errors.fail().
            '''
            return errors.fail()
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["exception-flow"])
    assert findings == []


def test_documented_builtins_are_not_checked(tmp_path):
    files = dict(ERRORS)
    files["src/repro/net/agent.py"] = """\
        def poll(x):
            '''Poll.

            Raises:
                ValueError: whenever the stdlib feels like it.
            '''
            return int(x)
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["exception-flow"])
    assert findings == []
