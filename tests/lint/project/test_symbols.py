"""ModuleSummary extraction: the raw material of every project rule."""

import textwrap

from repro.lint.context import ModuleContext
from repro.lint.project.engine import build_index
from repro.lint.project.symbols import ModuleSummary, summarize as summarize_ctx

from tests.lint.project.projutil import project_config, write_project


def summarize(source: str, module: str = "repro.fixture.mod") -> ModuleSummary:
    return summarize_ctx(
        ModuleContext.from_source(
            textwrap.dedent(source), path="fixture.py", module=module
        )
    )


def test_imports_and_bindings():
    summary = summarize(
        """\
        import os
        import repro.tpwire.constants as consts
        from repro.des import kernel
        from repro.tpwire.constants import FRAME_BITS as FB

        X = 1
        """
    )
    kinds = {rec["name"]: rec["kind"] for rec in summary.bindings}
    assert kinds == {
        "os": "import",
        "consts": "import",
        "kernel": "from",
        "FB": "from",
        "X": "assign",
    }
    by_name = summary.binding_map()
    assert by_name["FB"]["orig"] == "FRAME_BITS"
    assert by_name["FB"]["module"] == "repro.tpwire.constants"
    assert by_name["consts"]["target"] == "repro.tpwire.constants"
    assert all(rec["top"] for rec in summary.imports)


def test_function_local_imports_are_not_bindings():
    summary = summarize(
        """\
        def lazy():
            from repro.des.process import Process
            return Process
        """
    )
    assert "Process" not in summary.binding_map()
    nested = [rec for rec in summary.imports if not rec["top"]]
    assert len(nested) == 1 and nested[0]["module"] == "repro.des.process"


def test_conditional_bindings_are_marked():
    summary = summarize(
        """\
        try:
            import tomllib
        except ImportError:
            tomllib = None
        if True:
            FLAG = 1
        """
    )
    by_name = {rec["name"]: rec for rec in summary.bindings if rec["name"] == "FLAG"}
    assert by_name["FLAG"]["cond"] is True
    assert all(
        rec["cond"] for rec in summary.bindings if rec["name"] == "tomllib"
    )


def test_constant_expression_trees():
    summary = summarize(
        """\
        FRAME_BITS = 16
        DATA_BITS = 8
        HEADER_BITS = FRAME_BITS - DATA_BITS
        POLY = 0b10011
        NEG = -5
        RATE = consts.BIT_RATE
        """
    )
    assert summary.constants["FRAME_BITS"] == {"t": "num", "v": 16}
    assert summary.constants["HEADER_BITS"] == {
        "t": "bin",
        "op": "-",
        "l": {"t": "name", "id": "FRAME_BITS"},
        "r": {"t": "name", "id": "DATA_BITS"},
    }
    assert summary.constants["POLY"] == {"t": "num", "v": 0b10011}
    assert summary.constants["NEG"] == {"t": "un", "op": "-", "v": {"t": "num", "v": 5}}
    assert summary.constants["RATE"] == {"t": "dot", "d": "consts.BIT_RATE"}


def test_rebinding_to_unencodable_value_drops_the_constant():
    summary = summarize(
        """\
        WIDTH = 4
        WIDTH = compute()
        """
    )
    assert "WIDTH" not in summary.constants


def test_classes_functions_and_raises():
    summary = summarize(
        """\
        from repro.des.errors import SimError

        class CrcError(SimError):
            pass

        class Frame:
            def encode(self):
                raise CrcError("bad")

        def check(frame):
            '''Check a frame.

            Raises:
                CrcError: when the CRC does not match.
            '''
            frame.verify()
            raise errors.FrameError("nope")
        """
    )
    assert summary.classes["CrcError"]["bases"] == ["SimError"]
    assert "Frame.encode" in summary.functions
    assert summary.functions["Frame.encode"]["raises"] == ["CrcError"]
    assert summary.functions["check"]["doc_raises"] == ["CrcError"]
    assert "errors.FrameError" in summary.functions["check"]["raises"]
    names = {site["name"] for site in summary.raises}
    assert names == {"CrcError", "errors.FrameError"}
    funcs = {site["func"] for site in summary.raises}
    assert funcs == {"Frame.encode", "check"}


def test_numpy_style_doc_raises():
    summary = summarize(
        '''\
        def f():
            """Do a thing.

            Raises
            ------
            ValueError
                when the input is bad.
            """
        '''
    )
    assert summary.functions["f"]["doc_raises"] == ["ValueError"]


def test_no_raises_section_is_none_not_empty():
    summary = summarize(
        '''\
        def f():
            """Just a docstring."""
        '''
    )
    assert summary.functions["f"]["doc_raises"] is None


def test_all_literal_vs_dynamic():
    literal = summarize('__all__ = ["a", "b"]\na = b = 1\n')
    assert literal.all_names == ["a", "b"] and not literal.all_dynamic
    dynamic = summarize("__all__ = [n for n in dir()]\n")
    assert dynamic.all_names is None and dynamic.all_dynamic
    augmented = summarize('__all__ = ["a"]\n__all__ += ["b"]\na = 1\n')
    assert augmented.all_dynamic


def test_refs_only_track_imported_bases():
    summary = summarize(
        """\
        from repro.des import kernel
        from repro.tpwire import FRAME_BITS

        LOCAL = 3

        def use():
            return kernel.spin(FRAME_BITS + LOCAL)
        """
    )
    assert "kernel.spin" in summary.refs
    assert "FRAME_BITS" in summary.refs
    assert "LOCAL" not in summary.refs


def test_parse_error_is_recorded_not_raised(tmp_path):
    # An unparsable file still joins the index, with an empty summary,
    # so imports of it resolve; its parse error is a finding.
    write_project(
        tmp_path,
        {"src/repro/des/__init__.py": "", "src/repro/des/broken.py": "def broken(:\n"},
    )
    index = build_index([tmp_path / "src"], project_config(tmp_path))
    summary = index.summaries["repro.des.broken"]
    assert summary.path == "src/repro/des/broken.py"
    assert summary.bindings == []
