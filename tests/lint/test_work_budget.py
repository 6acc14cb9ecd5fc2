"""Work budget of one lint run over the repo's own four roots.

The linter needs no cache and no process pool because one run parses
each file once and walks each tree about once: per-file rules, symbol
summaries and effect seeds all read the same parse and the same node
lists.  Counts are deterministic on a shared runner; a wall-clock bound
is not.
"""

import ast
import re
from pathlib import Path

from repro.lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

ROOTS = ["src", "tests", "benchmarks", "examples"]

#: ``ast.iter_child_nodes`` calls allowed per parsed AST node.  One run
#: makes about 2.8: one walk for the module's node list, one for the
#: symbol summary and one over each function's in-scope nodes.
MAX_CHILD_ITERATIONS_PER_NODE = 3


def test_one_parse_per_file_and_about_one_walk_per_tree(monkeypatch, capsys):
    real_parse, real_children = ast.parse, ast.iter_child_nodes
    parsed: list[str] = []
    counts = {"nodes": 0, "children": 0}

    def parse(source, filename="<unknown>", *args, **kwargs):
        tree = real_parse(source, filename, *args, **kwargs)
        parsed.append(str(filename))
        stack = [tree]
        while stack:
            counts["nodes"] += 1
            stack.extend(real_children(stack.pop()))
        return tree

    def iter_child_nodes(node):
        counts["children"] += 1
        return real_children(node)

    monkeypatch.setattr(ast, "parse", parse)
    monkeypatch.setattr(ast, "iter_child_nodes", iter_child_nodes)
    monkeypatch.chdir(REPO_ROOT)
    assert main(ROOTS) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    files = int(re.match(r"repro-lint: (\d+) files", summary).group(1))

    assert files > 300
    assert sorted(set(parsed)) == sorted(parsed), "a file was parsed twice"
    # Every linted file, plus the protocol constants ``frame-bounds``
    # reads (by absolute path) when it is set up.
    assert len(parsed) == files + 1
    assert counts["children"] <= MAX_CHILD_ITERATIONS_PER_NODE * counts["nodes"], (
        f"{counts['children'] / counts['nodes']:.1f} child iterations per node"
    )
