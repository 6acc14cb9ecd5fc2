"""Distill per-module concurrency facts from CFG + dataflow.

:func:`extract_flow` is called by
:func:`repro.lint.project.symbols.summarize_source` and returns a plain
JSON dict that rides inside the :class:`ModuleSummary` — so flow facts
are computed once per file *content*, in the multiprocessing workers,
and cached by the incremental project cache.  The concurrency rules
(:mod:`repro.lint.flow.rules`) then run over summaries only, never
re-parsing sources.

Shape (keys omitted when empty, the whole dict empty for plain files)::

    {"locks":      {canon: {"kind": "RLock", "line": 12}},
     "guarded_by": {"Conn._rx": "Conn._lock"},
     "threads":    {"creates": [{"line": 40, "func": "Srv._loop"}],
                    "joins": [55, 61]},
     "functions":  {qualname: {
         "line": 10,
         "acquires":        [{"lock","line","held","via"}],
         "leaks":           [{"lock","line","path": [[line, note], ...]}],
         "releases_unheld": [{"lock","line"}],
         "calls_held":      [{"call","line","held"}],
         "waits":           [{"lock","line","in_loop"}],
         "attr_writes":     [{"attr","line","held"}]}}}

The dataflow lattice is the *may-held* set of canonical lock ids (join
is union), so "lock not held here" means held on **no** path — releases
of such a lock are definitely unbalanced — while "held at exit" means
some path (normal or exceptional) leaks it.  Lock acquire/release
statements themselves are modelled as non-raising, so a bare
``acquire(); release()`` pair is clean and only the code *between* the
pair can leak.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from repro.lint.flow.cfg import build_cfg, default_may_raise
from repro.lint.flow.dataflow import (
    ForwardAnalysis,
    event_states,
    reachable_path,
    run_forward,
)
from repro.lint.flow.locks import (
    ACQUIRE_TAILS,
    CONDITION_CTOR_TAILS,
    RELEASE_TAILS,
    WAIT_TAILS,
    LockNamer,
    dotted,
    lock_ctor_tail,
    lockish_name,
)

#: Call tails treated as blocking primitives: the ``blocking`` effect
#: seeds behind blocking-under-lock and async-unsafe-call.  ``join``
#: and the queue verbs additionally require a thread/queue-looking
#: receiver so ``os.path.join`` / ``dict.get`` stay out; ``wait`` on a
#: lock-ish receiver is a Condition wait, which blocking-under-lock
#: must NOT flag (waiting releases the lock).
BLOCKING_TAILS = {
    "sleep",
    "recv",
    "recvfrom",
    "recv_into",
    "sendall",
    "sendto",
    "accept",
    "connect",
    "select",
    "getaddrinfo",
    "gethostbyname",
    "wait",
    "join",
    "get",
    "put",
}

_RECEIVER_GUARDED_TAILS = {"join", "get", "put"}
_THREADISH_RE = re.compile(r"(thread|proc|worker|pool|queue)", re.IGNORECASE)

#: Method tails that mutate their receiver — ``self._rx.append(...)``
#: counts as a write to ``self._rx`` for the guarded-state rule.
MUTATOR_TAILS = {
    "append",
    "appendleft",
    "extend",
    "insert",
    "remove",
    "pop",
    "popleft",
    "clear",
    "add",
    "discard",
    "update",
    "setdefault",
}

_GUARDED_BY_RE = re.compile(r"#\s*lint:\s*guarded-by=([\w.]+)")

#: Witness paths in leak records are capped so SARIF stays readable.
_MAX_PATH = 8


#: Async frameworks whose same-named primitives suspend instead of
#: blocking — ``await asyncio.sleep(...)`` is the *correct* async idiom.
_ASYNC_NAMESPACES = {"asyncio", "anyio", "trio", "curio"}


def blocking_dotted(name: str) -> bool:
    """Is the dotted call name a curated blocking primitive?  (Shared
    with the effect seeds and the rules, which re-check the names
    stored in summaries.)"""
    parts = name.split(".")
    tail = parts[-1]
    if tail not in BLOCKING_TAILS:
        return False
    if len(parts) > 1 and parts[0] in _ASYNC_NAMESPACES:
        return False
    if tail in _RECEIVER_GUARDED_TAILS:
        receiver = parts[-2] if len(parts) > 1 else ""
        if not _THREADISH_RE.search(receiver):
            return False
    return True


def _walk_in_scope(node: ast.AST):
    """``ast.walk`` that does not descend into nested function scopes
    (lambdas, defs) — their calls don't execute here."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


# -- the lattice ------------------------------------------------------------


def _lock_ops(stmt: ast.stmt, namer: LockNamer):
    """``(op, canon, source_name, call)`` for lock calls inside ``stmt``."""
    ops = []
    for node in _walk_in_scope(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        name = dotted(func.value)
        if name is None:
            continue
        canon = namer.canonical(func.value)
        if canon is None:
            continue
        if func.attr in ACQUIRE_TAILS:
            # ``.acquire()`` is a strong signal by itself; ``.request()``
            # (the DES Resource spelling) needs a lock-ish receiver so
            # HTTP-style ``session.request`` stays out of the model.
            if func.attr == "acquire" or namer.is_lock(canon, name):
                ops.append(("acquire", canon, name, node))
        elif func.attr in RELEASE_TAILS and namer.is_lock(canon, name):
            ops.append(("release", canon, name, node))
    return ops


def _with_lock(item: ast.withitem, namer: LockNamer) -> Optional[str]:
    """Canonical id when a ``with`` item holds a lock (not a file etc.)."""
    expr = item.context_expr
    # ``with lock.acquire_timeout(...)``-style helpers are out of model;
    # plain names / self-attrs only.
    name = dotted(expr)
    if name is None:
        return None
    canon = namer.canonical(expr)
    if canon is None or not namer.is_lock(canon, name):
        return None
    return canon


class _HeldLocks(ForwardAnalysis):
    """May-held lock-set lattice over CFG events."""

    def __init__(self, namer: LockNamer):
        self.namer = namer

    def boundary(self):
        return frozenset()

    def join(self, a, b):
        return a | b

    def transfer(self, state, event):
        kind, node = event
        if kind == "stmt":
            for op, canon, _name, _call in _lock_ops(node, self.namer):
                state = state | {canon} if op == "acquire" else state - {canon}
            return state
        if kind == "enter":
            canon = _with_lock(node, self.namer)
            return state | {canon} if canon else state
        if kind == "exit":
            canon = _with_lock(node, self.namer)
            return state - {canon} if canon else state
        return state


def _may_raise(namer: LockNamer):
    """Statements whose only calls are lock ops are modelled non-raising
    — that is what keeps a bare acquire/release pair leak-free."""

    def predicate(stmt: ast.stmt) -> bool:
        if not default_may_raise(stmt):
            return False
        if isinstance(stmt, (ast.Assert, ast.Raise)):
            return True
        lock_calls = {id(call) for _o, _c, _n, call in _lock_ops(stmt, namer)}
        for node in ast.walk(stmt):
            if isinstance(node, ast.Await):
                return True
            if isinstance(node, ast.Call) and id(node) not in lock_calls:
                return True
        return False

    return predicate


# -- extraction -------------------------------------------------------------


def _collect_functions(body, prefix, class_name, out):
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + stmt.name
            out.append((qualname, stmt, class_name))
            _collect_functions(stmt.body, f"{qualname}.", None, out)
        elif isinstance(stmt, ast.ClassDef):
            _collect_functions(
                stmt.body, f"{prefix}{stmt.name}.", stmt.name, out
            )
        elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    _collect_functions([child], prefix, class_name, out)
                elif isinstance(child, ast.ExceptHandler):
                    _collect_functions(child.body, prefix, class_name, out)


def _known_locks(tree: ast.Module) -> dict:
    """Lock creations: module-level names and ``Class.attr`` instance or
    class attributes, however deep inside the class's methods."""
    known: dict[str, dict] = {}

    def scan_class(cls: ast.ClassDef, cls_name: str) -> None:
        for node in ast.walk(cls):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            kind = lock_ctor_tail(value) if value is not None else None
            if kind is None:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr = f"{cls_name}.{target.attr}"
                elif isinstance(target, ast.Name):
                    attr = f"{cls_name}.{target.id}"
                else:
                    continue
                known.setdefault(attr, {"kind": kind, "line": node.lineno})

    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            kind = lock_ctor_tail(stmt.value)
            if kind:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        known.setdefault(
                            target.id, {"kind": kind, "line": stmt.lineno}
                        )
        elif isinstance(stmt, ast.ClassDef):
            scan_class(stmt, stmt.name)
    return known


def _local_names(func) -> frozenset:
    """Names bound inside the function: params plus any Name stores.
    Everything else resolves at module scope, which is what lets an
    imported lock keep its resolvable module-level id."""
    args = func.args
    names = {
        a.arg
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )
    }
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.add(extra.arg)
    for node in _walk_in_scope(func):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
    return frozenset(names)


def _has_lock_events(func, namer: LockNamer) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.withitem) and _with_lock(node, namer):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ACQUIRE_TAILS | RELEASE_TAILS:
                name = dotted(node.func.value)
                canon = namer.canonical(node.func.value) if name else None
                if canon and (
                    node.func.attr == "acquire" or namer.is_lock(canon, name)
                ):
                    return True
    return False


def _loop_wait_ids(func) -> set:
    """ids of Call nodes that have a loop ancestor within this function."""
    inside: set[int] = set()

    def walk(node, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            now = in_loop or isinstance(child, (ast.While, ast.For, ast.AsyncFor))
            if isinstance(child, ast.Call) and in_loop:
                inside.add(id(child))
            walk(child, now)

    walk(func, False)
    return inside


def _first_line(block) -> Optional[int]:
    for _kind, node in block.events:
        line = getattr(node, "lineno", None)
        if line is not None:
            return line
    return None


class _FunctionFacts:
    """Facts of one function; CFG + dataflow only when it touches locks."""

    def __init__(self, qualname, func, class_name, namer, guard_lines, record_writes):
        self.qualname = qualname
        self.func = func
        self.class_name = class_name
        self.namer = namer
        self.guard_lines = guard_lines  # line -> guarded-by lock expr
        self.record_writes = record_writes
        self.guarded_by: dict[str, str] = {}

    def extract(self) -> dict:
        facts: dict = {}
        namer = self.namer
        if _has_lock_events(self.func, namer):
            cfg = build_cfg(self.func, may_raise=_may_raise(namer))
            analysis = _HeldLocks(namer)
            in_states, _out = run_forward(cfg, analysis)
            events = list(event_states(cfg, analysis, in_states))
            self._event_facts(facts, events)
            self._leaks(facts, cfg, in_states)
        else:
            self._light_walk(facts)
        if facts:
            facts["line"] = self.func.lineno
        return facts

    # -- with dataflow states ------------------------------------------------

    def _event_facts(self, facts: dict, events) -> None:
        namer = self.namer
        loop_waits = _loop_wait_ids(self.func)
        for _block, (kind, node), state in events:
            if kind == "enter":
                canon = _with_lock(node, namer)
                if canon:
                    facts.setdefault("acquires", []).append(
                        {
                            "lock": canon,
                            "line": node.context_expr.lineno,
                            "held": sorted(state - {canon}),
                            "via": "with",
                        }
                    )
            elif kind == "stmt":
                self._stmt_facts(facts, node, state, loop_waits)

    def _stmt_facts(self, facts, stmt, state, loop_waits) -> None:
        namer = self.namer
        lock_call_ids = set()
        for op, canon, _name, call in _lock_ops(stmt, namer):
            lock_call_ids.add(id(call))
            if op == "acquire":
                facts.setdefault("acquires", []).append(
                    {
                        "lock": canon,
                        "line": call.lineno,
                        "held": sorted(state - {canon}),
                        "via": "call",
                    }
                )
                state = state | {canon}
            else:
                if canon not in state and canon in namer.known:
                    facts.setdefault("releases_unheld", []).append(
                        {"lock": canon, "line": call.lineno}
                    )
                state = state - {canon}
        self._common_stmt_facts(facts, stmt, state, loop_waits, lock_call_ids)

    def _common_stmt_facts(self, facts, stmt, state, loop_waits, skip_ids) -> None:
        for node in _walk_in_scope(stmt):
            if isinstance(node, ast.Call) and id(node) not in skip_ids:
                self._call_facts(facts, node, state, loop_waits)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                self._write_facts(facts, node, state)

    def _call_facts(self, facts, call, state, loop_waits) -> None:
        namer = self.namer
        func = call.func
        name = dotted(func)
        if name is None:
            return
        if isinstance(func, ast.Attribute) and func.attr in WAIT_TAILS:
            receiver = dotted(func.value)
            canon = namer.canonical(func.value) if receiver else None
            if canon is not None and (
                namer.known.get(canon, {}).get("kind") in CONDITION_CTOR_TAILS
                or lockish_name(receiver)
            ):
                facts.setdefault("waits", []).append(
                    {
                        "lock": canon,
                        "line": call.lineno,
                        "in_loop": id(call) in loop_waits,
                    }
                )
                return  # a Condition wait is not a blocking call record
        if state:
            facts.setdefault("calls_held", []).append(
                {"call": name, "line": call.lineno, "held": sorted(state)}
            )
        # self._rx.append(...) is a write to self._rx.
        parts = name.split(".")
        if (
            self.record_writes
            and self.class_name
            and len(parts) == 3
            and parts[0] == "self"
            and parts[2] in MUTATOR_TAILS
        ):
            facts.setdefault("attr_writes", []).append(
                {
                    "attr": f"{self.class_name}.{parts[1]}",
                    "line": call.lineno,
                    "held": sorted(state),
                }
            )

    def _write_facts(self, facts, node, state) -> None:
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        else:
            targets = [node.target]
        for target in targets:
            # self.x = ... and self.x[k] = ... both write self.x.
            if isinstance(target, ast.Subscript):
                target = target.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.class_name
            ):
                continue
            attr = f"{self.class_name}.{target.attr}"
            guard = self.guard_lines.get(node.lineno)
            if guard is not None:
                self.guarded_by[attr] = self._canon_guard(guard)
            if self.record_writes:
                facts.setdefault("attr_writes", []).append(
                    {"attr": attr, "line": node.lineno, "held": sorted(state)}
                )

    def _canon_guard(self, guard: str) -> str:
        parts = guard.split(".")
        if parts[0] == "self" and self.class_name and len(parts) == 2:
            return f"{self.class_name}.{parts[1]}"
        return guard

    # -- without dataflow (no lock events: held is always empty) -------------

    def _light_walk(self, facts: dict) -> None:
        loop_waits = _loop_wait_ids(self.func)
        empty = frozenset()

        def walk(node):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(child, ast.Call):
                    self._call_facts(facts, child, empty, loop_waits)
                elif isinstance(
                    child, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)
                ):
                    self._write_facts(facts, child, empty)
                walk(child)

        walk(self.func)

    def _leaks(self, facts: dict, cfg, in_states) -> None:
        exit_held = in_states.get(cfg.exit)
        if not exit_held:
            return
        acquires = {
            rec["lock"]: rec for rec in reversed(facts.get("acquires", []))
        }
        for canon in sorted(exit_held):
            acquire = acquires.get(canon)
            line = acquire["line"] if acquire else self.func.lineno
            path = self._witness(cfg, in_states, canon, line)
            facts.setdefault("leaks", []).append(
                {"lock": canon, "line": line, "path": path}
            )

    def _witness(self, cfg, in_states, canon, acquire_line) -> list:
        """[[line, note], ...] along one held-throughout path to exit."""
        start = None
        for block in cfg.blocks:
            if any(
                getattr(node, "lineno", None) == acquire_line
                for _kind, node in block.events
            ):
                start = block.id
                break
        path = [[acquire_line, f"'{canon}' acquired here"]]
        if start is not None:
            blocks = reachable_path(
                cfg,
                start,
                cfg.exit,
                admit=lambda b: canon in in_states.get(b, frozenset()),
            )
            for block_id in (blocks or [])[1:-1]:
                line = _first_line(cfg.block(block_id))
                if line is not None and line != acquire_line:
                    path.append([line, f"'{canon}' still held"])
        del path[1 : max(1, len(path) - (_MAX_PATH - 2))]
        path.append(
            [self.func.lineno, f"function can exit with '{canon}' held"]
        )
        return path


def _thread_facts(tree: ast.Module) -> dict:
    """Thread creations vs joins, module-wide.  ``threading.Timer`` is
    deliberately not a creation: timers are one-shot and join-less by
    design (the server's lease machinery relies on that)."""
    creates: list[dict] = []
    joins: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if parts[-1] == "Thread":
            creates.append({"line": node.lineno})
        elif parts[-1] == "join" and len(parts) > 1:
            if _THREADISH_RE.search(parts[-2]):
                joins.add(node.lineno)
    facts: dict = {}
    if creates:
        facts["creates"] = sorted(creates, key=lambda rec: rec["line"])
    if joins:
        facts["joins"] = sorted(joins)
    return facts


def extract_flow(tree: ast.Module, source: str, module: str) -> dict:
    """The per-module flow-fact dict (empty for lock/thread-free files)."""
    known = _known_locks(tree)
    guard_lines = {
        lineno: match.group(1)
        for lineno, line in enumerate(source.splitlines(), start=1)
        for match in [_GUARDED_BY_RE.search(line)]
        if match
    }
    lock_classes = {canon.split(".")[0] for canon in known if "." in canon}

    functions: list = []
    _collect_functions(tree.body, "", None, functions)

    flow: dict = {}
    if known:
        flow["locks"] = known
    guarded_by: dict[str, str] = {}

    # Class-body declarations can carry the annotation too:
    #   _rx: deque  # lint: guarded-by=self._lock
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        for node in stmt.body:
            target = getattr(node, "target", None)
            if isinstance(node, ast.AnnAssign) and isinstance(target, ast.Name):
                guard = guard_lines.get(node.lineno)
                if guard is not None:
                    parts = guard.split(".")
                    canon = (
                        f"{stmt.name}.{parts[1]}"
                        if parts[0] == "self" and len(parts) == 2
                        else guard
                    )
                    guarded_by[f"{stmt.name}.{target.id}"] = canon

    func_facts: dict[str, dict] = {}
    for qualname, func, class_name in functions:
        namer = LockNamer(
            qualname=qualname,
            class_name=class_name,
            known=known,
            local_names=_local_names(func),
        )
        # Attribute-write facts are only interesting for classes that
        # own a lock (or when the module uses guarded-by annotations at
        # all) — that is what keeps lock-free modules' summaries tiny.
        record_writes = bool(
            class_name and (class_name in lock_classes or guard_lines)
        )
        extractor = _FunctionFacts(
            qualname, func, class_name, namer, guard_lines, record_writes
        )
        facts = extractor.extract()
        guarded_by.update(extractor.guarded_by)
        if facts:
            func_facts[qualname] = facts
    if func_facts:
        flow["functions"] = func_facts
    if guarded_by:
        flow["guarded_by"] = guarded_by
    threads = _thread_facts(tree)
    if threads:
        flow["threads"] = threads
    return flow
