"""Per-function effect seeds, distilled during summarisation.

:func:`extract_effects` is called by
:func:`repro.lint.project.symbols.summarize` on the file's one parse and
returns a plain dict riding inside the :class:`ModuleSummary`.  Each
function's in-scope nodes are walked once; every seed below reads that
list.  The interprocedural layer (:mod:`repro.lint.effects.infer`) then
works over summaries only.

Shape (keys omitted when empty)::

    {"functions": {qualname: {
        "line": 10, "is_async": true, "annotation": "pure",
        "effects":   {kind: [{"line", "what"}, ...]},
        "calls":     [[dotted, line], ...],     # raw names, for the graph
        "scheduled": [[dotted, line], ...],     # fn args of call_at/after
        "self_writes": [[line, attr], ...]}}}   # non-birth self mutation

Call names in ``calls`` stay *raw* (resolution needs the whole-project
index); seed classification alias-normalises them first, so
``import time as t; t.monotonic()`` still seeds ``wall-clock``.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.effects.model import (
    ANNOTATION_RE,
    ENV_READ,
    ENV_READ_ATTRS,
    GLOBAL_MUTATION,
    MUTATOR_TAILS,
    SCHEDULE_TAILS_ALWAYS,
    SCHEDULE_TAILS_GUARDED,
    SIMISH_RE,
    TRACKED_MODULES,
    UNORDERED_OS_CALLS,
    UNORDERED_OS_TAILS,
    UNSTABLE_ITER,
    classify_call,
)

#: Methods where self-mutation is construction, not observable mutation.
BIRTH_METHODS = frozenset({"__init__", "__new__", "__post_init__", "__del__"})

#: Builtins whose result order follows the iterable's order — converting
#: a set through them bakes hash order into the output.
_ORDER_SENSITIVE_CONVERTERS = frozenset({"list", "tuple", "iter", "enumerate"})

#: Set-producing binary operators (``a | b`` on sets).
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Set methods returning sets.
_SET_PRODUCER_TAILS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Per-function caps keeping summaries small.
_MAX_SITES = 8
_MAX_SELF_WRITES = 4


def _alias_maps(nodes: list[ast.AST]) -> tuple[dict[str, str], dict[str, str]]:
    """(module-alias map, from-import map) for the tracked stdlib set.

    ``{"t": "time"}`` for ``import time as t``; ``{"sleep":
    "time.sleep", "datetime": "datetime.datetime"}`` for from-imports.
    """
    imports = astutil.import_nodes(nodes)
    mod_aliases: dict[str, str] = {}
    from_names: dict[str, str] = {}
    for module in TRACKED_MODULES:
        for alias in astutil.module_aliases(imports, module):
            # ``import os.path`` binds ``os`` — prefer the shortest
            # (head) module so ``os.path.join`` normalises unchanged.
            if alias not in mod_aliases or len(module) < len(mod_aliases[alias]):
                mod_aliases[alias] = module.split(".")[0] if alias == module.split(".")[0] else module
        for local, (_node, name) in astutil.from_imported(imports, module).items():
            from_names[local] = f"{module}.{name}"
    return mod_aliases, from_names


def _normalize(name: str, mod_aliases: dict, from_names: dict) -> str:
    parts = name.split(".")
    head = parts[0]
    if head in mod_aliases:
        return ".".join([mod_aliases[head]] + parts[1:])
    if head in from_names:
        return ".".join([from_names[head]] + parts[1:])
    return name


def _collect_functions(body, prefix, class_name, out):
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + stmt.name
            out.append((qualname, stmt, class_name))
            _collect_functions(stmt.body, f"{qualname}.", None, out)
        elif isinstance(stmt, ast.ClassDef):
            _collect_functions(stmt.body, f"{prefix}{stmt.name}.", stmt.name, out)
        elif isinstance(stmt, (ast.If, ast.Try, ast.With)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    _collect_functions([child], prefix, class_name, out)
                elif isinstance(child, ast.ExceptHandler):
                    _collect_functions(child.body, prefix, class_name, out)


def _local_names(func, nodes: list[ast.AST]) -> frozenset:
    args = func.args
    names = {
        a.arg
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    }
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.add(extra.arg)
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for target in ast.walk(node.target):
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return frozenset(names)


def _param_names(func) -> frozenset:
    args = func.args
    names = {
        a.arg
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    }
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.add(extra.arg)
    return frozenset(names)


def _root_name(node: ast.AST) -> Optional[str]:
    """Base Name of an Attribute/Subscript chain (``a.b[c].d`` -> ``a``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _SetTracker:
    """Which expressions in one function are set-valued (shallowly)."""

    def __init__(self, nodes: list[ast.AST]):
        self.setish_locals: set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Assign) and self.is_setish(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.setish_locals.add(target.id)

    def is_setish(self, node: Optional[ast.AST]) -> bool:
        if node is None:
            return False
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_PRODUCER_TAILS
                and self.is_setish(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.Name):
            return node.id in self.setish_locals
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_setish(node.left) or self.is_setish(node.right)
        return False


class _FunctionEffects:
    def __init__(self, qualname, func, class_name, mod_aliases, from_names, lines):
        self.qualname = qualname
        self.func = func
        self.class_name = class_name or (
            qualname.split(".")[0] if "." in qualname else None
        )
        self.method = qualname.split(".")[-1]
        self.mod_aliases = mod_aliases
        self.from_names = from_names
        self.lines = lines
        #: The function's in-scope nodes, walked once for every seed.
        self.nodes = list(astutil.walk_in_scope(func))
        self.locals = _local_names(func, self.nodes)
        self.params = _param_names(func)
        self.globals_decl: set[str] = set()
        for node in self.nodes:
            if isinstance(node, ast.Global):
                self.globals_decl.update(node.names)
        self.effects: dict[str, list[dict]] = {}
        self.calls: dict[str, int] = {}
        self.scheduled: list[list] = []
        self.self_writes: list[list] = []
        self.sets = _SetTracker(self.nodes)

    # -- recording ----------------------------------------------------------

    def seed(self, kind: str, line: int, what: str) -> None:
        sites = self.effects.setdefault(kind, [])
        if len(sites) < _MAX_SITES and not any(
            s["line"] == line and s["what"] == what for s in sites
        ):
            sites.append({"line": line, "what": what})

    # -- the walk -----------------------------------------------------------

    def extract(self) -> dict:
        for node in self.nodes:
            if isinstance(node, ast.Call):
                self._call(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                self._write(node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._iteration(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    self._iteration(gen.iter)
            elif isinstance(node, ast.Attribute):
                self._attr(node)

        record: dict = {"line": self.func.lineno}
        if isinstance(self.func, ast.AsyncFunctionDef):
            record["is_async"] = True
        annotation = self._annotation()
        if annotation:
            record["annotation"] = annotation
        if self.effects:
            record["effects"] = {
                kind: self.effects[kind] for kind in sorted(self.effects)
            }
        if self.calls:
            record["calls"] = sorted(
                [[name, line] for name, line in self.calls.items()]
            )
        if self.scheduled:
            record["scheduled"] = sorted(self.scheduled)
        if self.self_writes:
            record["self_writes"] = self.self_writes
        return record

    def _annotation(self) -> Optional[str]:
        if 1 <= self.func.lineno <= len(self.lines):
            match = ANNOTATION_RE.search(self.lines[self.func.lineno - 1])
            if match:
                return match.group(1)
        return None

    def _call(self, call: ast.Call) -> None:
        raw = astutil.dotted(call.func)
        if raw is None:
            return
        if raw not in self.calls:
            self.calls[raw] = call.lineno
        name = _normalize(raw, self.mod_aliases, self.from_names)
        argc = len(call.args)
        for kind, what in classify_call(name, argc):
            self.seed(kind, call.lineno, what)
        self._schedule(call, raw)
        self._mutator_call(call, raw)

    def _schedule(self, call: ast.Call, raw: str) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        tail = func.attr
        if tail in SCHEDULE_TAILS_ALWAYS:
            pass
        elif tail in SCHEDULE_TAILS_GUARDED:
            receiver = astutil.dotted(func.value)
            if receiver is None or not SIMISH_RE.search(receiver.split(".")[-1]):
                return
        else:
            return
        if len(call.args) < 2:
            return
        target = astutil.dotted(call.args[1])
        if target is not None and len(self.scheduled) < _MAX_SITES:
            self.scheduled.append([target, call.lineno])

    def _mutator_call(self, call: ast.Call, raw: str) -> None:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in MUTATOR_TAILS):
            return
        root = _root_name(func.value)
        if root is None:
            return
        self._mutation(root, raw, call.lineno, attr_depth=len(raw.split(".")) - 1)

    def _write(self, node) -> None:
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        for target in targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._write_target(element, node.lineno)
                continue
            self._write_target(target, node.lineno)

    def _write_target(self, target: ast.AST, line: int) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.globals_decl:
                self.seed(GLOBAL_MUTATION, line, f"writes global '{target.id}'")
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        root = _root_name(target)
        if root is None:
            return
        name = astutil.dotted(target) if isinstance(target, ast.Attribute) else None
        self._mutation(root, name or root, line, attr_depth=2)

    def _mutation(self, root: str, name: str, line: int, attr_depth: int) -> None:
        if root in ("self", "cls"):
            if (
                self.class_name
                and self.method not in BIRTH_METHODS
                and len(self.self_writes) < _MAX_SELF_WRITES
            ):
                attr = name.split(".")[1] if "." in name else name
                entry = [line, attr]
                if entry not in self.self_writes:
                    self.self_writes.append(entry)
            return
        if root in self.globals_decl:
            self.seed(GLOBAL_MUTATION, line, f"writes global '{root}'")
        elif root in self.mod_aliases or (
            root in self.from_names and "." not in self.from_names[root]
        ):
            self.seed(GLOBAL_MUTATION, line, f"mutates module state '{name}'")
        elif root in self.params:
            self.seed(GLOBAL_MUTATION, line, f"mutates argument '{name}'")
        elif root not in self.locals:
            # A free name: module-level object or imported binding.
            self.seed(GLOBAL_MUTATION, line, f"mutates module-level '{name}'")

    def _iteration(self, expr: ast.AST) -> None:
        if self.sets.is_setish(expr):
            self.seed(
                UNSTABLE_ITER,
                expr.lineno,
                "iterates a set (hash order); wrap in sorted()",
            )

    def _attr(self, node: ast.Attribute) -> None:
        name = astutil.dotted(node)
        if name is None:
            return
        normalized = _normalize(name, self.mod_aliases, self.from_names)
        if normalized in ENV_READ_ATTRS and isinstance(node.ctx, ast.Load):
            self.seed(ENV_READ, node.lineno, f"reads {normalized}")


def _unordered_os(fn: "_FunctionEffects") -> None:
    """Seed unstable-iteration for OS-ordered listings not under sorted()."""
    # Direct ``sorted(...)`` arguments: a listing passed straight to
    # sorted() has a stable order.
    under_sorted = {
        id(arg)
        for node in fn.nodes
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
        for arg in node.args
    }
    for node in fn.nodes:
        if not isinstance(node, ast.Call):
            continue
        raw = astutil.dotted(node.func)
        if raw is None:
            continue
        name = _normalize(raw, fn.mod_aliases, fn.from_names)
        tail = name.split(".")[-1]
        if name not in UNORDERED_OS_CALLS and tail not in UNORDERED_OS_TAILS:
            continue
        if id(node) in under_sorted:
            continue
        fn.seed(
            UNSTABLE_ITER,
            node.lineno,
            f"{name}() returns entries in OS order; wrap in sorted()",
        )


def _converter_sets(fn: "_FunctionEffects") -> None:
    """``list(a_set)`` / ``tuple(a_set)`` bake hash order into a sequence."""
    for node in fn.nodes:
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        if node.func.id not in _ORDER_SENSITIVE_CONVERTERS or not node.args:
            continue
        if fn.sets.is_setish(node.args[0]):
            fn.seed(
                UNSTABLE_ITER,
                node.lineno,
                f"{node.func.id}() over a set (hash order); wrap in sorted()",
            )


def extract_effects(ctx: ModuleContext) -> dict:
    """The per-module effect-seed dict (see module docstring)."""
    mod_aliases, from_names = _alias_maps(ctx.nodes)
    functions: list = []
    _collect_functions(ctx.tree.body, "", None, functions)

    func_records: dict[str, dict] = {}
    for qualname, func, class_name in functions:
        extractor = _FunctionEffects(
            qualname, func, class_name, mod_aliases, from_names, ctx.lines
        )
        record = extractor.extract()
        _unordered_os(extractor)
        _converter_sets(extractor)
        if extractor.effects:
            record["effects"] = {
                kind: extractor.effects[kind] for kind in sorted(extractor.effects)
            }
        func_records[qualname] = record
    return {"functions": func_records} if func_records else {}
