"""The concurrency-discipline rule pack.

Six project rules over the flow facts
(:mod:`repro.lint.flow.facts`) riding in every module summary:

* ``lock-balance``       — every acquire is released on all CFG paths,
  exception edges included; leaks carry an acquire→exit code flow.
* ``lock-order``         — the cross-module lock-acquisition-order
  graph must be acyclic (a cycle is a potential deadlock).
* ``guarded-state``      — attributes declared ``# lint:
  guarded-by=<lock>`` are never written without that lock (ERROR);
  attributes observed written both under a lock and lock-free are
  flagged as advisory inference findings (WARNING).
* ``blocking-under-lock``— no blocking primitive (socket I/O, sleep,
  thread join, queue get/put) runs while a lock is held, directly or
  through a project call chain; "does this call block?" is answered
  by the effects fixpoint (:mod:`repro.lint.effects.infer`), the same
  one ``async-unsafe-call`` reads.
* ``cond-wait-loop``     — ``Condition.wait`` is re-checked in a loop
  (wakeups can be spurious).
* ``thread-lifecycle``   — a module that creates ``threading.Thread``
  objects must join threads somewhere (``Timer`` excluded by design).

All of them consume summaries only — sources are never re-read — so
they inherit the incremental cache, suppression and SARIF machinery of
the project pass for free.  See ``docs/concurrency.md``.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Iterator, Optional

from repro.lint.effects.callgraph import node_key, split_node
from repro.lint.effects.infer import effect_index
from repro.lint.effects.model import BLOCKING
from repro.lint.findings import Finding, Severity
from repro.lint.flow.facts import blocking_dotted
from repro.lint.project.graph import ModuleGraph
from repro.lint.registry import ProjectRule, register

#: Methods allowed to write guarded attributes lock-free: the object is
#: not shared yet (or is being torn down) while these run.
_BIRTH_METHODS = {"__init__", "__new__", "__del__"}


def _iter_functions(index):
    """``(module, summary, qualname, facts)`` for every function with
    flow facts, deterministically ordered."""
    for module in sorted(index.summaries):
        summary = index.summaries[module]
        functions = summary.flow.get("functions", {})
        for qualname in sorted(functions):
            yield module, summary, qualname, functions[qualname]


def _global_lock_id(index, module: str, canon: str) -> Optional[str]:
    """Module-qualified lock id for the order graph; None for locals.

    A simple module-level name is resolved through the import graph so
    ``from repro.core.locks import IO_LOCK`` and the defining module
    agree on one id; ``alias.LOCK`` resolves through module aliases.
    ``Class.attr`` ids stay module-local (classes are compared where
    they are defined).
    """
    if ":" in canon:
        return None
    parts = canon.split(".")
    if len(parts) == 1:
        resolved = index.resolve_symbol(module, canon)
        if resolved is not None:
            def_module, binding = resolved
            return f"{def_module}.{binding['name']}"
        return f"{module}.{canon}"
    if len(parts) == 2:
        target = index.module_alias(module, parts[0])
        if target is not None:
            return f"{target}.{parts[1]}"
    return f"{module}.{canon}"


@register
class LockBalanceRule(ProjectRule):
    id = "lock-balance"
    summary = (
        "every lock acquired must be released on all paths out of the "
        "function, exception edges included (use with or try/finally)"
    )

    def check(self, index) -> Iterator[Finding]:
        for module, summary, qualname, facts in _iter_functions(index):
            if not self.in_scope(module):
                continue
            for leak in facts.get("leaks", []):
                yield self.finding_at(
                    summary.path,
                    leak["line"],
                    f"'{leak['lock']}' acquired in {qualname} is not "
                    "released on every path out of the function "
                    "(exception paths included); hold it in a with "
                    "block or release in try/finally",
                    code_flow=leak.get("path", []),
                )
            for rec in facts.get("releases_unheld", []):
                yield self.finding_at(
                    summary.path,
                    rec["line"],
                    f"{qualname} releases '{rec['lock']}', which is not "
                    "held on any path reaching this statement",
                )


@register
class LockOrderRule(ProjectRule):
    id = "lock-order"
    summary = (
        "the project-wide lock acquisition order must be acyclic; a "
        "cycle means two threads can deadlock taking the locks in "
        "opposite orders"
    )

    def check(self, index) -> Iterator[Finding]:
        edges: dict[str, set] = {}
        sites: dict[tuple, tuple] = {}  # (held, acquired) -> (path, line, module)
        for module, summary, _qualname, facts in _iter_functions(index):
            for acq in facts.get("acquires", []):
                acquired = _global_lock_id(index, module, acq["lock"])
                if acquired is None:
                    continue
                for held_local in acq.get("held", []):
                    held = _global_lock_id(index, module, held_local)
                    if held is None or held == acquired:
                        continue
                    edges.setdefault(held, set()).add(acquired)
                    sites.setdefault(
                        (held, acquired), (summary.path, acq["line"], module)
                    )
        for cycle in ModuleGraph(edges).cycles():
            ring = cycle + [cycle[0]]
            site = None
            for held, acquired in zip(ring, ring[1:]):
                site = sites.get((held, acquired))
                if site is not None:
                    break
            if site is None:
                continue
            path, line, module = site
            if not self.in_scope(module):
                continue
            chain = " -> ".join(ring)
            yield self.finding_at(
                path,
                line,
                f"lock acquisition order cycle (potential deadlock): {chain}",
            )


@register
class GuardedStateRule(ProjectRule):
    id = "guarded-state"
    summary = (
        "attributes annotated '# lint: guarded-by=<lock>' must only be "
        "written with that lock held; mixed locked/lock-free writes are "
        "flagged as inferred races"
    )

    def check(self, index) -> Iterator[Finding]:
        for module in sorted(index.summaries):
            if not self.in_scope(module):
                continue
            summary = index.summaries[module]
            guarded = summary.flow.get("guarded_by", {})
            writes: dict[str, list] = {}
            for qualname, facts in sorted(
                summary.flow.get("functions", {}).items()
            ):
                method = qualname.split(".")[-1]
                for rec in facts.get("attr_writes", []):
                    writes.setdefault(rec["attr"], []).append(
                        (qualname, method, rec)
                    )
            yield from self._annotated(summary, guarded, writes)
            yield from self._inferred(summary, guarded, writes)

    def _annotated(self, summary, guarded, writes) -> Iterator[Finding]:
        for attr, lock in sorted(guarded.items()):
            for qualname, method, rec in writes.get(attr, []):
                if method in _BIRTH_METHODS:
                    continue
                if lock not in rec["held"]:
                    yield self.finding_at(
                        summary.path,
                        rec["line"],
                        f"'{attr}' is declared guarded-by '{lock}' but "
                        f"{qualname} writes it without holding the lock",
                    )

    def _inferred(self, summary, guarded, writes) -> Iterator[Finding]:
        for attr, recs in sorted(writes.items()):
            if attr in guarded:
                continue
            locked = [r for _q, m, r in recs if r["held"] and m not in _BIRTH_METHODS]
            if not locked:
                continue
            # The inferred guard: a lock held at every locked write.
            common = set(locked[0]["held"])
            for rec in locked[1:]:
                common &= set(rec["held"])
            if not common:
                continue
            guard = sorted(common)[0]
            for qualname, method, rec in recs:
                if method in _BIRTH_METHODS or rec["held"]:
                    continue
                yield self.finding_at(
                    summary.path,
                    rec["line"],
                    f"'{attr}' is written under '{guard}' elsewhere but "
                    f"{qualname} writes it lock-free; annotate it with "
                    f"'# lint: guarded-by=...' or take the lock",
                    severity=Severity.WARNING,
                )


@register
class BlockingUnderLockRule(ProjectRule):
    id = "blocking-under-lock"
    summary = (
        "no blocking call (socket I/O, sleep, join, queue get/put) "
        "while a lock is held — directly or through a call chain"
    )

    def check(self, index) -> Iterator[Finding]:
        allow = tuple(self.options.get("allow", ()))
        allow_modules = tuple(self.options.get("allow-modules", ()))
        effects = effect_index(index)
        for module, summary, qualname, facts in _iter_functions(index):
            if not self.in_scope(module):
                continue
            if any(fnmatch(module, pattern) for pattern in allow_modules):
                continue
            node = node_key(module, qualname)
            for rec in facts.get("calls_held", []):
                call = rec["call"]
                if any(fnmatch(call, pattern) for pattern in allow):
                    continue
                held = ", ".join(f"'{lock}'" for lock in rec["held"])
                if blocking_dotted(call):
                    yield self.finding_at(
                        summary.path,
                        rec["line"],
                        f"blocking call {call}() while holding {held}; "
                        "move the blocking operation outside the lock",
                    )
                    continue
                callee = effects.blocking_callee(node, call)
                if callee is None:
                    continue
                chain = effects.witness(callee, BLOCKING)
                head = [
                    rec["line"],
                    f"calls {split_node(callee)[1]}() holding {held}",
                    summary.path,
                ]
                yield self.finding_at(
                    summary.path,
                    rec["line"],
                    f"{call}() blocks (via {chain[-1][1]}) and is called "
                    f"while holding {held}; move it outside the lock",
                    code_flow=[head] + [list(step) for step in chain],
                )


@register
class CondWaitLoopRule(ProjectRule):
    id = "cond-wait-loop"
    summary = (
        "Condition.wait must be re-checked in a loop — wakeups can be "
        "spurious and the predicate may already be false again"
    )

    def check(self, index) -> Iterator[Finding]:
        for module, summary, qualname, facts in _iter_functions(index):
            if not self.in_scope(module):
                continue
            for rec in facts.get("waits", []):
                if rec.get("in_loop"):
                    continue
                yield self.finding_at(
                    summary.path,
                    rec["line"],
                    f"{qualname} calls wait on '{rec['lock']}' outside "
                    "a loop; use 'while not predicate: cond.wait()' "
                    "(wakeups can be spurious)",
                )


@register
class ThreadLifecycleRule(ProjectRule):
    id = "thread-lifecycle"
    summary = (
        "a module creating threading.Thread objects must join threads "
        "somewhere (with a timeout), or stopped threads leak"
    )
    default_severity = Severity.WARNING

    def check(self, index) -> Iterator[Finding]:
        for module in sorted(index.summaries):
            if not self.in_scope(module):
                continue
            summary = index.summaries[module]
            threads = summary.flow.get("threads", {})
            creates = threads.get("creates", [])
            if not creates or threads.get("joins"):
                continue
            for rec in creates:
                yield self.finding_at(
                    summary.path,
                    rec["line"],
                    "threading.Thread created here but nothing in this "
                    "module ever joins a thread; track the thread and "
                    "join it (with a timeout) on shutdown",
                )
