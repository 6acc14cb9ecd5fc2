"""Interprocedural effect inference: the SCC-condensed fixpoint.

The effect of one function is the union of its local seeds
(:mod:`repro.lint.effects.extract`) and the effects of everything it
calls (:mod:`repro.lint.effects.callgraph`).  Over the powerset lattice
this is a monotone fixpoint; processing Tarjan components callees-first
makes every component's inputs final before it runs, and within a
component members iterate to their shared fixpoint (for a union lattice
that is simply the component-wide union).

For every ``(function, kind)`` pair the inference records one *cause* —
either the local seed site or the call edge that imported the effect.
Causes are recorded once, pointing at a function that already had the
kind, so cause chains are acyclic by construction and
:meth:`EffectIndex.witness` can walk them into a cross-file call-chain
witness (rendered as SARIF ``codeFlows``).
"""

from __future__ import annotations

from fnmatch import fnmatch

from repro.lint.effects.callgraph import (
    CallGraph,
    build_call_graph,
    effect_functions,
    split_node,
    strongly_connected,
)
from repro.lint.effects.model import BLOCKING

#: Functions assumed effect-free regardless of their bodies: the
#: sanctioned clock boundary.  ``repro.core.clock`` *is* the wall-clock
#: abstraction (``SystemClock`` reads the OS on purpose; every sim path
#: receives a ``SimClock``).  Listing it here keeps the hierarchy
#: fallback from resolving ``self._clock.now()`` to ``SystemClock.now``
#: and poisoning every sim path with a false wall-clock effect.
DEFAULT_ASSUME_PURE = ("repro.core.clock:*",)

#: Hierarchy-fallback candidate bound (see ``callgraph.CallResolver``).
DEFAULT_CHA_CAP = 8


def inference_options(config) -> dict:
    """The ``[tool.repro-lint.effects]`` options with defaults applied."""
    options = dict(config.rule_options.get("effects", {}))
    options.setdefault("assume-pure", list(DEFAULT_ASSUME_PURE))
    options.setdefault("barrier", [])
    options.setdefault("cha-cap", DEFAULT_CHA_CAP)
    return options


class EffectIndex:
    """Queryable result of one inference run."""

    def __init__(
        self,
        index,
        effects: dict[str, dict],
        mutating_callees: dict[str, list],
        blocking_calls: dict[str, list],
        scheduled: list,
    ):
        self._index = index
        #: node -> {kind: cause}; cause is ``{"t": "seed", "line", "what"}``
        #: or ``{"t": "call", "callee", "line"}``.
        self.effects = effects
        #: node -> [[callee, line], ...] for callees that mutate their
        #: own instance state (the obs read-only rule's raw material).
        self.mutating_callees = mutating_callees
        #: node -> [[raw call name, callee, line], ...] for calls whose
        #: callee blocks: what ``async-unsafe-call`` reports through.
        self.blocking_calls = blocking_calls
        #: [[registering node, target node, line], ...].
        self.scheduled = scheduled

    # -- queries -------------------------------------------------------------

    def effects_of(self, node: str) -> dict:
        return self.effects.get(node, {})

    def nodes(self) -> list[str]:
        return sorted(self.effects)

    def record(self, node: str) -> dict:
        """The summary-side function record behind one node."""
        module, qualname = split_node(node)
        summary = self._index.summaries.get(module)
        if summary is None:
            return {}
        return effect_functions(summary).get(qualname, {})

    def path_of(self, node: str) -> str:
        module, _ = split_node(node)
        summary = self._index.summaries.get(module)
        return summary.path if summary is not None else module

    def witness(self, node: str, kind: str) -> list[tuple[int, str, str]]:
        """Cause-chain steps ``(line, note, path)`` from ``node`` down to
        the primitive seed of ``kind`` (cross-file: each step carries its
        own path, which the SARIF writer renders per location)."""
        steps: list[tuple[int, str, str]] = []
        seen: set[str] = set()
        current = node
        while current not in seen:
            seen.add(current)
            cause = self.effects.get(current, {}).get(kind)
            if cause is None:
                break
            path = self.path_of(current)
            if cause["t"] == "seed":
                steps.append((cause["line"], cause["what"], path))
                break
            callee = cause["callee"]
            _, callee_qual = split_node(callee)
            steps.append((cause["line"], f"calls {callee_qual}()", path))
            current = callee
        return steps


def _propagate(
    graph: CallGraph, seeds: dict[str, dict], pure: set[str], barrier: set[str]
) -> None:
    """Join callee effects into callers, in place, to the fixpoint."""
    for component in strongly_connected(graph):
        members = set(component)
        changed = True
        while changed:
            changed = False
            for node in component:
                if node in pure:
                    continue
                mine = seeds[node]
                for callee, line in graph.edges.get(node, []):
                    if callee in barrier:
                        continue
                    for kind in seeds.get(callee, {}):
                        if kind not in mine:
                            mine[kind] = {"t": "call", "callee": callee, "line": line}
                            changed = True
            # Only intra-component edges can still move anything; a
            # singleton without a self-loop converges in one pass.
            if len(members) == 1:
                break


def infer_effects(index) -> EffectIndex:
    """Build the call graph and run the fixpoint."""
    options = inference_options(index.config)
    assume_pure = tuple(options.get("assume-pure", ()))
    graph = build_call_graph(index, cha_cap=int(options.get("cha-cap", DEFAULT_CHA_CAP)))

    pure = {
        node
        for node in graph.nodes
        if any(fnmatch(node, pattern) for pattern in assume_pure)
    }
    # Barrier functions keep their own seeds (rules targeting them
    # directly still fire) but callers do not inherit them: the
    # canonical use is a dispatch seam like the Connection protocol,
    # where the hierarchy fallback resolves ``conn.recv_bytes()`` to
    # every implementation while the sim wiring only ever injects the
    # in-memory one.
    barrier = {
        node
        for node in graph.nodes
        if any(fnmatch(node, pattern) for pattern in options.get("barrier", ()))
    }

    effects: dict[str, dict] = {}
    for node in graph.nodes:
        module, qualname = split_node(node)
        rec = effect_functions(index.summaries[module]).get(qualname, {})
        mine: dict[str, dict] = {}
        if node not in pure:
            for kind, sites in rec.get("effects", {}).items():
                site = sites[0]
                mine[kind] = {"t": "seed", "line": site["line"], "what": site["what"]}
        effects[node] = mine

    _propagate(graph, effects, pure, barrier)

    mutating: dict[str, list] = {}
    blocking: dict[str, list] = {}
    for node in graph.nodes:
        if node in pure:
            continue
        hits = []
        for callee, line in graph.edges.get(node, []):
            if callee in pure or callee in barrier:
                continue
            callee_module, callee_qual = split_node(callee)
            callee_rec = effect_functions(
                index.summaries[callee_module]
            ).get(callee_qual, {})
            if callee_rec.get("self_writes"):
                hits.append([callee, line])
        if hits:
            mutating[node] = hits
        # One edge per raw name: the first blocking resolution wins.
        calls: dict[str, list] = {}
        for name, callee, line in graph.calls.get(node, []):
            if name in calls or callee in pure or callee in barrier:
                continue
            if BLOCKING in effects.get(callee, {}):
                calls[name] = [name, callee, line]
        if calls:
            blocking[node] = list(calls.values())

    return EffectIndex(index, effects, mutating, blocking, list(graph.scheduled))


def effect_index(index) -> EffectIndex:
    """The effect index of one project index, memoized on it: every
    effect rule of one lint run shares a single inference."""
    memo = getattr(index, "_effects_index", None)
    if memo is None:
        memo = index._effects_index = infer_effects(index)
    return memo
