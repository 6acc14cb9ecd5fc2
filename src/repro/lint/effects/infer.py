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

The whole inference result is cached in the project cache keyed on a
*project digest* — the hash of every module's content hash plus the
inference options — so warm runs deserialize instead of rebuilding the
graph: that is what the ``python -m repro.lint.project.timing`` CI gate
asserts via the ``effects_built``/``effects_reused`` counters.
"""

from __future__ import annotations

import hashlib
import json
from fnmatch import fnmatch
from typing import Optional

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


def effects_digest(module_sha: dict[str, str], options: dict) -> str:
    """Any file or option change must invalidate the inferred effects."""
    hasher = hashlib.sha256()
    for module in sorted(module_sha):
        hasher.update(f"{module}={module_sha[module]};".encode("utf-8"))
    hasher.update(json.dumps(options, sort_keys=True).encode("utf-8"))
    return hasher.hexdigest()


class EffectIndex:
    """Queryable result of one inference run (built or deserialized)."""

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

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "effects": self.effects,
            "mutating_callees": self.mutating_callees,
            "blocking_calls": self.blocking_calls,
            "scheduled": [list(rec) for rec in self.scheduled],
        }

    @classmethod
    def from_dict(cls, index, data: dict) -> "EffectIndex":
        return cls(
            index,
            data.get("effects", {}),
            data.get("mutating_callees", {}),
            data.get("blocking_calls", {}),
            [tuple(rec) for rec in data.get("scheduled", [])],
        )


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


def infer_effects(index, options: Optional[dict] = None) -> EffectIndex:
    """Build the call graph and run the fixpoint (the cold path)."""
    options = options if options is not None else inference_options(index.config)
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
    """The (memoized, cached) effect index of one project index.

    Every effect rule runs against the same project index within one
    lint invocation, so the result is memoized on the index; across
    invocations it is served from the project cache when the project
    digest (content hashes + options) matches.
    """
    memo = getattr(index, "_effects_index", None)
    if memo is not None:
        return memo

    options = inference_options(index.config)
    digest = None
    if index.cache is not None and index.module_sha:
        digest = effects_digest(index.module_sha, options)
        cached = index.cache.effects_for(digest)
        if cached is not None:
            result = EffectIndex.from_dict(index, cached)
            index.stats.effects_reused += 1
            index._effects_index = result
            return result

    result = infer_effects(index, options)
    index.stats.effects_built += 1
    if index.cache is not None and digest is not None:
        index.cache.store_effects(digest, result.to_dict())
    index._effects_index = result
    return result
