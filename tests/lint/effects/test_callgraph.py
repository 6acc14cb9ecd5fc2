"""Call resolution goldens and SCC ordering (repro.lint.effects.callgraph)."""

from repro.lint.effects.callgraph import (
    CallGraph,
    build_call_graph,
    strongly_connected,
)
from repro.lint.project.engine import build_index

from tests.lint.project.projutil import project_config, write_project


def index_for(tmp_path, files):
    write_project(tmp_path, files)
    return build_index([tmp_path / "src"], project_config(tmp_path))


def edges_of(graph: CallGraph, caller: str) -> set:
    return {callee for callee, _line in graph.edges.get(caller, [])}


def test_self_method_and_ctor_resolution(tmp_path):
    index = index_for(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/box.py": """\
                class Box:
                    def __init__(self):
                        self.items = []

                    def put(self, item):
                        self.check(item)
                        self.items += [item]

                    def check(self, item):
                        pass

                def make():
                    return Box()
                """,
        },
    )
    graph = build_call_graph(index)
    assert edges_of(graph, "repro.net.box:Box.put") == {"repro.net.box:Box.check"}
    assert edges_of(graph, "repro.net.box:make") == {"repro.net.box:Box.__init__"}


def test_inherited_method_resolves_through_cross_module_mro(tmp_path):
    index = index_for(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/base.py": """\
                class Base:
                    def emit(self):
                        pass
                """,
            "src/repro/net/leaf.py": """\
                from repro.net.base import Base

                class Leaf(Base):
                    def run(self):
                        self.emit()
                """,
        },
    )
    graph = build_call_graph(index)
    assert edges_of(graph, "repro.net.leaf:Leaf.run") == {"repro.net.base:Base.emit"}


def test_aliased_import_and_bare_function_resolution(tmp_path):
    index = index_for(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/util.py": """\
                def helper():
                    pass
                """,
            "src/repro/net/app.py": """\
                import repro.net.util as util
                from repro.net.util import helper

                def via_alias():
                    util.helper()

                def via_from_import():
                    helper()
                """,
        },
    )
    graph = build_call_graph(index)
    assert edges_of(graph, "repro.net.app:via_alias") == {"repro.net.util:helper"}
    assert edges_of(graph, "repro.net.app:via_from_import") == {
        "repro.net.util:helper"
    }


def test_function_local_shadows_module_function(tmp_path):
    index = index_for(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/nested.py": """\
                def step():
                    pass

                def outer():
                    def step():
                        pass
                    step()
                """,
        },
    )
    graph = build_call_graph(index)
    assert edges_of(graph, "repro.net.nested:outer") == {
        "repro.net.nested:outer.step"
    }


def test_static_class_call_resolution(tmp_path):
    index = index_for(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/codec.py": """\
                class Codec:
                    def decode(self, data):
                        pass

                def run(data):
                    Codec.decode(None, data)
                """,
        },
    )
    graph = build_call_graph(index)
    assert edges_of(graph, "repro.net.codec:run") == {"repro.net.codec:Codec.decode"}


def test_cha_fallback_fans_out_to_same_named_methods(tmp_path):
    index = index_for(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/impls.py": """\
                class Wire:
                    def transmit(self):
                        pass

                class Radio:
                    def transmit(self):
                        pass

                def send(channel):
                    channel.transmit()
                """,
        },
    )
    graph = build_call_graph(index)
    assert edges_of(graph, "repro.net.impls:send") == {
        "repro.net.impls:Wire.transmit",
        "repro.net.impls:Radio.transmit",
    }


def test_cha_fallback_skips_dunders_builtin_tails_and_the_cap(tmp_path):
    classes = "\n\n".join(
        f"class C{i}:\n"
        f"    def common(self):\n"
        f"        pass\n"
        for i in range(3)
    )
    index = index_for(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/impls.py": f"""\
                {classes}

                class Store:
                    def get(self, name):
                        pass

                    def __len__(self):
                        pass

                def lookup(table, name):
                    return table.get(name)

                def size(thing):
                    return thing.__len__()

                def fan(channel):
                    channel.common()
                """,
        },
    )
    graph = build_call_graph(index, cha_cap=2)
    # dict-protocol tails and dunders never resolve through the
    # hierarchy fallback, and over-cap fan-outs drop to unresolved.
    assert edges_of(graph, "repro.net.impls:lookup") == set()
    assert edges_of(graph, "repro.net.impls:size") == set()
    assert edges_of(graph, "repro.net.impls:fan") == set()


def test_scheduled_targets_become_entry_records_not_edges(tmp_path):
    index = index_for(
        tmp_path,
        {
            "src/repro/net/__init__.py": "",
            "src/repro/net/drv.py": """\
                def tick():
                    pass

                def setup(sim):
                    sim.call_after(1.0, tick)
                """,
        },
    )
    graph = build_call_graph(index)
    assert ("repro.net.drv:setup", "repro.net.drv:tick", 5) in graph.scheduled
    assert edges_of(graph, "repro.net.drv:setup") == set()


def _linear_graph(edges: dict) -> CallGraph:
    graph = CallGraph()
    for caller, callees in edges.items():
        graph.nodes.add(caller)
        for callee in callees:
            graph.nodes.add(callee)
        graph.edges[caller] = [(callee, 1) for callee in callees]
    return graph


def test_sccs_emit_callees_before_callers():
    graph = _linear_graph({"m:a": ["m:b"], "m:b": ["m:c"], "m:c": []})
    order = strongly_connected(graph)
    assert order.index(["m:c"]) < order.index(["m:b"]) < order.index(["m:a"])


def test_mutual_recursion_collapses_into_one_component():
    graph = _linear_graph({"m:a": ["m:b"], "m:b": ["m:a"], "m:main": ["m:a"]})
    order = strongly_connected(graph)
    assert ["m:a", "m:b"] in order
    assert order.index(["m:a", "m:b"]) < order.index(["m:main"])


def test_deep_chains_do_not_hit_the_recursion_limit():
    chain = {f"m:f{i}": [f"m:f{i + 1}"] for i in range(5000)}
    chain["m:f5000"] = []
    order = strongly_connected(_linear_graph(chain))
    assert len(order) == 5001
    assert order[0] == ["m:f5000"]
