"""dead-public-api and shadowed-export."""

from repro.lint.findings import Severity

from tests.lint.project.projutil import run_rules, write_project

PKG = {
    "src/repro/net/__init__.py": """\
        from repro.net.agent import Agent, Sink

        __all__ = ["Agent", "Sink"]
        """,
    "src/repro/net/agent.py": """\
        class Agent:
            pass

        class Sink:
            pass
        """,
}


def test_unreferenced_export_warns(tmp_path):
    write_project(tmp_path, PKG)
    findings, _s = run_rules(tmp_path, ["dead-public-api"])
    assert {f.message.split(" exports ")[1].split(",")[0] for f in findings} == {
        "Agent",
        "Sink",
    }
    assert all(f.severity is Severity.WARNING for f in findings)
    assert all(f.path == "src/repro/net/__init__.py" for f in findings)


def test_reference_through_the_package_keeps_it_alive(tmp_path):
    files = dict(PKG)
    files["src/repro/cosim/__init__.py"] = ""
    files["src/repro/cosim/run.py"] = """\
        from repro.net import Agent

        def go():
            return Agent()
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["dead-public-api"])
    assert [f for f in findings if "Agent" in f.message] == []
    assert len([f for f in findings if "Sink" in f.message]) == 1


def test_reference_through_the_submodule_also_counts(tmp_path):
    files = dict(PKG)
    files["src/repro/cosim/__init__.py"] = ""
    files["src/repro/cosim/run.py"] = """\
        from repro.net import agent

        def go():
            return agent.Agent()
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["dead-public-api"])
    assert [f for f in findings if "Agent" in f.message] == []


def test_function_local_import_counts_as_use(tmp_path):
    files = dict(PKG)
    files["src/repro/cosim/__init__.py"] = ""
    files["src/repro/cosim/run.py"] = """\
        def go():
            from repro.net import Agent
            return Agent()
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["dead-public-api"])
    assert [f for f in findings if "Agent" in f.message] == []


def test_reference_from_tests_only_does_not_keep_it_alive(tmp_path):
    files = dict(PKG)
    files["tests/net/test_agent.py"] = """\
        from repro.net import Agent

        def test_agent():
            assert Agent()
        """
    files["benchmarks/conftest.py"] = """\
        from repro.net import Agent

        AGENT = Agent
        """
    files["benchmarks/bench_sink.py"] = """\
        from repro.net import Sink

        def run():
            return Sink()
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(
        tmp_path,
        ["dead-public-api"],
        rule_options={
            "project": {
                "roots": ["src", "tests", "benchmarks"],
            }
        },
    )
    assert [f for f in findings if "Agent" in f.message] != []
    assert [f for f in findings if "Sink" in f.message] == []


def test_reexport_alone_is_not_a_use(tmp_path):
    # A chain of __init__ re-exports with no real consumer stays dead.
    files = dict(PKG)
    files["src/repro/__init__.py"] = "from repro.net import Agent\n"
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["dead-public-api"])
    assert [f for f in findings if "Agent" in f.message] != []


def test_allow_option_and_dunders_are_exempt(tmp_path):
    files = dict(PKG)
    files["src/repro/net/__init__.py"] = """\
        from repro.net.agent import Agent, Sink

        __version__ = "1.0"

        __all__ = ["Agent", "Sink", "__version__"]
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(
        tmp_path,
        ["dead-public-api"],
        rule_options={"dead-public-api": {"allow": ["Sink"]}},
    )
    assert len(findings) == 1
    assert "Agent" in findings[0].message


def test_all_ghost_name_fires(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": """\
                from repro.net.agent import Agent

                __all__ = ["Agent", "Ghost"]
                """,
            "src/repro/net/agent.py": "class Agent:\n    pass\n",
        },
    )
    findings, _s = run_rules(tmp_path, ["shadowed-export"])
    assert len(findings) == 1
    assert "Ghost" in findings[0].message


def test_module_getattr_exempts_lazy_all_entries(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": """\
                __all__ = ["lazy_thing"]

                def __getattr__(name):
                    if name == "lazy_thing":
                        return 42
                    raise AttributeError(name)
                """,
        },
    )
    findings, _s = run_rules(tmp_path, ["shadowed-export"])
    assert findings == []


def test_duplicate_all_entry_fires(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": """\
                from repro.net.agent import Agent

                __all__ = ["Agent", "Agent"]
                """,
            "src/repro/net/agent.py": "class Agent:\n    pass\n",
        },
    )
    findings, _s = run_rules(tmp_path, ["shadowed-export"])
    assert len(findings) == 1
    assert "duplicate" in findings[0].message


def test_unconditional_import_shadowing_fires(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/dup.py": """\
                from repro.net.first import helper
                from repro.net.second import helper

                def use():
                    return helper()
                """,
            "src/repro/net/first.py": "def helper():\n    return 1\n",
            "src/repro/net/second.py": "def helper():\n    return 2\n",
        },
    )
    findings, _s = run_rules(tmp_path, ["shadowed-export"])
    assert len(findings) == 1
    assert findings[0].line == 2
    assert "shadows the import on line 1" in findings[0].message


def test_conditional_fallback_import_is_allowed(tmp_path):
    write_project(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/compat.py": """\
                try:
                    import tomllib
                except ImportError:
                    import tomli as tomllib
                """,
        },
    )
    findings, _s = run_rules(tmp_path, ["shadowed-export"])
    assert findings == []


#: A package that imports its exports on first access, through an
#: export table read by ``repro.lazy_exports``.
LAZY_PKG = {
    "src/repro/__init__.py": """\
        def lazy_exports(namespace, table):
            return None, None
        """,
    "src/repro/net/__init__.py": """\
        from repro import lazy_exports

        _EXPORTS = {
            "repro.net.agent": ("Agent", "Sink"),
            "repro.net": ("agent",),
        }

        __all__ = ["Agent", "Sink", "agent"]

        __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
        """,
    "src/repro/net/agent.py": PKG["src/repro/net/agent.py"],
}


def test_lazy_export_without_a_user_warns(tmp_path):
    files = dict(LAZY_PKG)
    files["src/repro/cosim/__init__.py"] = ""
    files["src/repro/cosim/run.py"] = """\
        from repro.net import Agent

        def go():
            return Agent()
        """
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["dead-public-api"])
    assert [(f.path, f.line) for f in findings] == [("src/repro/net/__init__.py", 4)]
    assert "repro.net exports Sink, but repro.net.agent.Sink" in findings[0].message


def test_export_table_entry_naming_a_missing_symbol_fires(tmp_path):
    files = dict(LAZY_PKG)
    files["src/repro/net/agent.py"] = "class Agent:\n    pass\n"
    write_project(tmp_path, files)
    findings, _s = run_rules(tmp_path, ["shadowed-export"])
    assert [(f.line, f.message) for f in findings] == [
        (4, "export table takes 'Sink' from repro.net.agent, which neither "
            "defines nor imports it"),
    ]


def test_export_table_entries_bind_the_package_names(tmp_path):
    write_project(tmp_path, LAZY_PKG)
    findings, _s = run_rules(tmp_path, ["shadowed-export"])
    assert findings == []
