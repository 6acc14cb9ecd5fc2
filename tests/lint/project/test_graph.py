"""ModuleGraph: cycles and invalidation closures."""

from repro.lint.project.graph import ModuleGraph


def test_acyclic_graph_has_no_cycles():
    graph = ModuleGraph({"a": {"b"}, "b": {"c"}, "c": set()})
    assert graph.cycles() == []


def test_two_cycle_detected_and_rotated_to_smallest():
    graph = ModuleGraph({"b": {"a"}, "a": {"b"}})
    assert graph.cycles() == [["a", "b"]]


def test_self_loop_counts():
    graph = ModuleGraph({"a": {"a"}})
    assert graph.cycles() == [["a"]]


def test_long_cycle_and_unrelated_chain():
    graph = ModuleGraph(
        {"m": {"n"}, "n": {"o"}, "o": {"m"}, "x": {"y"}, "y": set()}
    )
    cycles = graph.cycles()
    assert len(cycles) == 1
    assert cycles[0][0] == "m"
    assert set(cycles[0]) == {"m", "n", "o"}


def test_deep_chain_does_not_hit_recursion_limit():
    edges = {f"m{i}": {f"m{i + 1}"} for i in range(5000)}
    edges["m5000"] = set()
    assert ModuleGraph(edges).cycles() == []


def test_transitive_deps_exclude_self():
    graph = ModuleGraph({"a": {"b"}, "b": {"c"}, "c": set(), "d": set()})
    assert graph.transitive_deps("a") == {"b", "c"}
    assert graph.transitive_deps("c") == set()
