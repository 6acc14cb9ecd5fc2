"""The project module graph: import edges, cycles, dependent closures.

Nodes are dotted module names; edges point from importer to imported
module (restricted to modules that are part of the project index).
Cycle detection runs Tarjan's strongly-connected-components algorithm —
iteratively, so a pathological import chain cannot hit the recursion
limit — over the *top-level* import edges only: a function-local import
is a legitimate lazy-cycle-breaker at run time, so it must not count as
a cycle here (it still counts as a layer edge).
"""

from __future__ import annotations

from typing import Iterable


class ModuleGraph:
    """Directed import graph over project modules."""

    def __init__(self, edges: dict[str, set[str]]):
        #: importer -> imported (project-internal, top-level imports).
        self.edges: dict[str, set[str]] = {m: set(t) for m, t in edges.items()}
        for targets in list(self.edges.values()):
            for target in targets:
                self.edges.setdefault(target, set())

    def modules(self) -> list[str]:
        return sorted(self.edges)

    def deps(self, module: str) -> set[str]:
        return self.edges.get(module, set())

    # -- closures ----------------------------------------------------------

    def _closure(self, seeds: Iterable[str], adjacency: dict[str, set[str]]) -> set[str]:
        seen: set[str] = set()
        stack = [s for s in seeds if s in adjacency]
        while stack:
            module = stack.pop()
            if module in seen:
                continue
            seen.add(module)
            stack.extend(adjacency.get(module, ()))
        return seen

    def transitive_deps(self, module: str) -> set[str]:
        """Modules reachable from ``module`` (module itself excluded)."""
        return self._closure(self.deps(module), self.edges)

    # -- cycles ------------------------------------------------------------

    def cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1 (plus self-loops),
        each rotated to start at its smallest module, sorted for
        deterministic output."""
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        sccs: list[list[str]] = []

        for root in sorted(self.edges):
            if root in index:
                continue
            # Iterative Tarjan: work items are (node, iterator state).
            work = [(root, iter(sorted(self.edges[root])))]
            index[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter
                        counter += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(self.edges[succ]))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1 or node in self.edges.get(node, ()):
                        start = component.index(min(component))
                        sccs.append(component[start:] + component[:start])
        return sorted(sccs)
