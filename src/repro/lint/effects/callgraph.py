"""The project-wide call graph over effect summaries.

Nodes are ``"module:qualname"`` strings.  Edges come from the raw per-call
names recorded by :mod:`repro.lint.effects.extract`; resolution is a
layered best-effort:

* ``self.m`` / ``cls.m``     — method lookup through the class's MRO,
  bases resolved across modules via the import machinery;
* bare names                 — nested function-locals, module functions,
  re-export chains (``resolve_symbol``), then class constructors
  (``Cls(...)`` edges to ``Cls.__init__``);
* ``alias.f`` / ``alias.Cls``— through module aliases;
* ``Cls.m``                  — static/class-method calls on a class
  visible in the calling module;
* anything else              — a bounded class-hierarchy fallback: an
  attribute call on an unknown receiver resolves to *every* project
  method with that name (dunders excluded).  Over-approximate, which is
  the sound direction for effect propagation; receivers with more than
  ``cha_cap`` same-named candidates are treated as unresolved instead,
  because a truncated candidate list would be arbitrary and a 30-way
  fan-out is pure noise.

Scheduler registrations (``sim.call_after(delay, fn, ...)``) resolve the
``fn`` reference with the same machinery and become *scheduled-entry*
records rather than call edges — the DES dispatch loop invokes them
dynamically, so they are roots for ``nondet-in-sim``, not callees of
``Simulator.run``.
"""

from __future__ import annotations

from typing import Optional

#: Method names never resolved through the hierarchy fallback — dunder
#: calls on unknown receivers are almost always builtin protocol hits.
_CHA_EXCLUDED_PREFIX = "__"

#: Tails shared with the builtin container/str/buffer protocols, also
#: excluded from the fallback: ``self._signals.get(...)`` is a dict
#: read, and resolving it to every project class that happens to define
#: ``get`` (the DES ``Store.get``) manufactures false effect edges.
#: Project-distinctive polymorphism (``recv_bytes``, ``receive_tx``)
#: is unaffected.
_CHA_BUILTIN_TAILS = frozenset(
    {
        # dict
        "get", "setdefault", "update", "pop", "popitem", "clear",
        "keys", "values", "items", "copy", "fromkeys",
        # list
        "append", "extend", "insert", "remove", "sort", "reverse",
        "index", "count",
        # set
        "add", "discard", "union", "intersection", "difference",
        # str
        "join", "split", "rsplit", "strip", "lstrip", "rstrip",
        "replace", "format", "startswith", "endswith", "encode",
        "decode", "lower", "upper",
        # file-like buffers
        "readline", "readlines", "writelines", "flush", "seek",
        "tell", "getvalue",
    }
)


def node_key(module: str, qualname: str) -> str:
    return f"{module}:{qualname}"


def split_node(node: str) -> tuple[str, str]:
    module, _, qualname = node.partition(":")
    return module, qualname


def effect_functions(summary) -> dict:
    """The per-function effect records of one module summary."""
    return summary.effects.get("functions", {})


class CallGraph:
    """Resolved edges plus scheduled-entry records."""

    def __init__(self) -> None:
        self.nodes: set[str] = set()
        #: caller -> [(callee, call line), ...] deterministic order.
        self.edges: dict[str, list[tuple[str, int]]] = {}
        #: caller -> [(raw call name, callee, call line), ...]: every
        #: resolution of every raw name, so a call site can be looked up
        #: by the name it was written with.
        self.calls: dict[str, list[tuple[str, str, int]]] = {}
        #: (registering function, scheduled target, registration line).
        self.scheduled: list[tuple[str, str, int]] = []


class CallResolver:
    """Resolves one raw dotted call name to project function nodes."""

    def __init__(self, index, *, cha_cap: int = 8):
        self.index = index
        self.cha_cap = cha_cap
        self._cha: Optional[dict[str, list[str]]] = None
        self._mro_memo: dict[tuple[str, str], list[tuple[str, str]]] = {}

    # -- summaries ----------------------------------------------------------

    def functions_of(self, module: str) -> dict:
        summary = self.index.summaries.get(module)
        return effect_functions(summary) if summary is not None else {}

    # -- class hierarchy ----------------------------------------------------

    def _resolve_base(self, module: str, base: str) -> Optional[tuple[str, str]]:
        """(defining module, class name) for one dotted base string."""
        parts = base.split(".")
        if len(parts) == 1:
            resolved = self.index.resolve_symbol(module, base)
            if resolved is not None:
                def_module, binding = resolved
                if binding["kind"] == "class":
                    return (def_module, binding["name"])
            return None
        head = ".".join(parts[:-1])
        target = self.index.module_alias(module, parts[0])
        if target is not None and len(parts) == 2:
            summary = self.index.summaries.get(target)
            if summary is not None and parts[1] in summary.classes:
                return (target, parts[1])
        if head in self.index.summaries:
            if parts[-1] in self.index.summaries[head].classes:
                return (head, parts[-1])
        return None

    def mro(self, module: str, cls: str) -> list[tuple[str, str]]:
        """The class plus its project-visible ancestors, nearest first."""
        key = (module, cls)
        memo = self._mro_memo.get(key)
        if memo is not None:
            return memo
        order: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        queue: list[tuple[str, str]] = [key]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            mod, name = current
            summary = self.index.summaries.get(mod)
            if summary is None or name not in summary.classes:
                continue
            order.append(current)
            for base in summary.classes[name]["bases"]:
                resolved = self._resolve_base(mod, base)
                if resolved is not None:
                    queue.append(resolved)
        self._mro_memo[key] = order
        return order

    def resolve_method(self, module: str, cls: str, method: str) -> Optional[str]:
        for mod, name in self.mro(module, cls):
            if f"{name}.{method}" in self.functions_of(mod):
                return node_key(mod, f"{name}.{method}")
        return None

    def _ctor(self, module: str, cls: str) -> list[str]:
        """``Cls(...)`` edges into ``__init__`` (through the MRO)."""
        target = self.resolve_method(module, cls, "__init__")
        return [target] if target is not None else []

    # -- hierarchy fallback --------------------------------------------------

    def _cha_index(self) -> dict[str, list[str]]:
        if self._cha is None:
            cha: dict[str, list[str]] = {}
            for module in sorted(self.index.summaries):
                summary = self.index.summaries[module]
                for qualname in sorted(effect_functions(summary)):
                    parts = qualname.split(".")
                    if len(parts) != 2 or parts[0] not in summary.classes:
                        continue
                    method = parts[1]
                    if method.startswith(_CHA_EXCLUDED_PREFIX):
                        continue
                    cha.setdefault(method, []).append(node_key(module, qualname))
            self._cha = cha
        return self._cha

    def _cha_lookup(self, method: str) -> list[str]:
        if method.startswith(_CHA_EXCLUDED_PREFIX) or method in _CHA_BUILTIN_TAILS:
            return []
        candidates = self._cha_index().get(method, [])
        if not candidates or len(candidates) > self.cha_cap:
            return []
        return list(candidates)

    # -- the entry point -----------------------------------------------------

    def resolve(self, module: str, qualname: str, name: str) -> list[str]:
        """Project nodes one raw dotted call/reference may invoke."""
        summary = self.index.summaries.get(module)
        if summary is None:
            return []
        functions = self.functions_of(module)
        parts = name.split(".")

        if parts[0] in ("self", "cls"):
            cls = qualname.split(".")[0]
            if cls not in summary.classes:
                return []
            if len(parts) == 2:
                target = self.resolve_method(module, cls, parts[1])
                # The receiver class is known: an unresolved method is
                # out of model, not a hierarchy-fallback candidate.
                return [target] if target is not None else []
            return self._cha_lookup(parts[-1])

        if len(parts) == 1:
            nested = f"{qualname}.{name}"
            if nested in functions:
                return [node_key(module, nested)]
            if name in functions:
                return [node_key(module, name)]
            if name in summary.classes:
                return self._ctor(module, name)
            resolved = self.index.resolve_symbol(module, name)
            if resolved is not None:
                def_module, binding = resolved
                if binding["kind"] == "def" and binding["name"] in self.functions_of(
                    def_module
                ):
                    return [node_key(def_module, binding["name"])]
                if binding["kind"] == "class":
                    return self._ctor(def_module, binding["name"])
            return []

        if len(parts) == 2:
            head, tail = parts
            if head in summary.classes:
                target = self.resolve_method(module, head, tail)
                return [target] if target is not None else []
            alias = self.index.module_alias(module, head)
            if alias is not None:
                if tail in self.functions_of(alias):
                    return [node_key(alias, tail)]
                alias_summary = self.index.summaries.get(alias)
                if alias_summary is not None and tail in alias_summary.classes:
                    return self._ctor(alias, tail)
                return []
            resolved = self.index.resolve_symbol(module, head)
            if resolved is not None and resolved[1]["kind"] == "class":
                target = self.resolve_method(resolved[0], resolved[1]["name"], tail)
                if target is not None:
                    return [target]
            return self._cha_lookup(tail)

        # a.b.c...: module-qualified class methods, else the fallback.
        alias = self.index.module_alias(module, parts[0])
        if alias is not None and len(parts) == 3:
            alias_summary = self.index.summaries.get(alias)
            if alias_summary is not None and parts[1] in alias_summary.classes:
                target = self.resolve_method(alias, parts[1], parts[2])
                return [target] if target is not None else []
        return self._cha_lookup(parts[-1])


def build_call_graph(index, *, cha_cap: int = 8) -> CallGraph:
    """Resolve every summary call record into one project graph."""
    resolver = CallResolver(index, cha_cap=cha_cap)
    graph = CallGraph()
    for module in sorted(index.summaries):
        for qualname in effect_functions(index.summaries[module]):
            graph.nodes.add(node_key(module, qualname))
    for module in sorted(index.summaries):
        functions = effect_functions(index.summaries[module])
        for qualname in sorted(functions):
            caller = node_key(module, qualname)
            rec = functions[qualname]
            edges: list[tuple[str, int]] = []
            calls: list[tuple[str, str, int]] = []
            seen: set[str] = set()
            for name, line in rec.get("calls", []):
                for callee in resolver.resolve(module, qualname, name):
                    if callee == caller:
                        continue
                    calls.append((name, callee, line))
                    if callee not in seen:
                        seen.add(callee)
                        edges.append((callee, line))
            if edges:
                graph.edges[caller] = edges
                graph.calls[caller] = calls
            for target, line in rec.get("scheduled", []):
                for callee in resolver.resolve(module, qualname, target):
                    graph.scheduled.append((caller, callee, line))
    graph.scheduled.sort()
    return graph


def strongly_connected(graph: CallGraph) -> list[list[str]]:
    """Tarjan's SCCs, iteratively, emitted callees-first.

    With caller→callee edges Tarjan pops an SCC only after every SCC
    reachable from it, so processing components in emission order means
    every callee's effects are final before its callers join them in —
    exactly the order the fixpoint in :mod:`repro.lint.effects.infer`
    wants.  Iterative so deep call chains cannot hit the recursion
    limit.
    """
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0

    for root in sorted(graph.nodes):
        if root in index_of:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_i = work.pop()
            if edge_i == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            edges = graph.edges.get(node, [])
            advanced = False
            while edge_i < len(edges):
                callee = edges[edge_i][0]
                edge_i += 1
                if callee not in graph.nodes:
                    continue
                if callee not in index_of:
                    work.append((node, edge_i))
                    work.append((callee, 0))
                    advanced = True
                    break
                if callee in on_stack:
                    low[node] = min(low[node], index_of[callee])
            if advanced:
                continue
            if low[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs
