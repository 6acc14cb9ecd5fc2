"""Per-module symbol summaries for the whole-program pass.

A :class:`ModuleSummary` is everything the project rules need to know
about one file — imports, module-level bindings (a package's export
table among them), constant expressions, class/function skeletons,
raise sites, ``__all__`` — extracted by
:func:`summarize` from the :class:`~repro.lint.context.ModuleContext`
the per-file rules saw, so each file is parsed once per run.

Constant expressions are stored as small nested dicts::

    {"t": "num",  "v": 16}
    {"t": "name", "id": "FRAME_BITS"}
    {"t": "dot",  "d": "constants.FRAME_BITS"}
    {"t": "bin",  "op": "-", "l": ..., "r": ...}
    {"t": "un",   "op": "-", "v": ...}

which is exactly the subset the ``proto-const-drift`` rule can propagate
across module boundaries.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Optional

from repro.lint.astutil import dotted
from repro.lint.context import ModuleContext
from repro.lint.effects.extract import extract_effects

_BINOPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
    ast.Pow: "**",
    ast.LShift: "<<",
    ast.RShift: ">>",
    ast.BitOr: "|",
    ast.BitAnd: "&",
    ast.BitXor: "^",
}

_UNARYOPS = {ast.USub: "-", ast.UAdd: "+", ast.Invert: "~"}

#: A package's export table (see :func:`repro.lazy_exports`): a literal
#: ``{module: (name, ...)}`` read as the package's bindings.
EXPORT_TABLE = "_EXPORTS"


@dataclass
class ModuleSummary:
    """Everything the project rules see of one module."""

    module: str
    path: str
    #: Import records: {"kind": "import"|"from", "module": str|None,
    #: "level": int, "names": [[name, local], ...], "line": int,
    #: "top": bool} — ``top`` is False for imports inside functions.
    imports: list[dict] = field(default_factory=list)
    #: Ordered module-level bindings: {"name", "kind": "import"|"from"|
    #: "assign"|"def"|"class", "line", "cond": bool, plus for "from":
    #: "module"/"level"/"orig" (and "lazy": True for an export-table
    #: entry), for "import": "target"}.
    bindings: list[dict] = field(default_factory=list)
    #: Module-level constant expressions, name -> expr dict (see module
    #: docstring) — only for assignments the encoder understands.
    constants: dict[str, dict] = field(default_factory=dict)
    #: Class skeletons: name -> {"bases": [dotted str], "line": int}.
    classes: dict[str, dict] = field(default_factory=dict)
    #: Functions: qualname -> {"line": int, "raises": [dotted],
    #: "doc_raises": [names]|None}.
    functions: dict[str, dict] = field(default_factory=dict)
    #: Every raise site: {"name": dotted, "line": int, "func": qualname|None}.
    raises: list[dict] = field(default_factory=list)
    #: ``__all__`` as a literal list, or None when absent.
    all_names: Optional[list[str]] = None
    all_line: int = 0
    #: True when ``__all__`` exists but is not a plain literal list.
    all_dynamic: bool = False
    #: Dotted references used anywhere in the module body (``alias`` or
    #: ``alias.attr``), deduplicated — the raw material for dead-export
    #: reference counting.
    refs: list[str] = field(default_factory=list)
    #: Effect seeds distilled by :mod:`repro.lint.effects.extract`
    #: (per-function effect sites, call sites with lines, scheduler
    #: registrations, ``# lint: effect=`` annotations, self-mutation).
    effects: dict = field(default_factory=dict)

    # -- conveniences used by the rules ------------------------------------

    @property
    def is_package(self) -> bool:
        return self.path.endswith("__init__.py")

    def binding_map(self) -> dict[str, dict]:
        """Last-wins map of module-level bindings."""
        return {rec["name"]: rec for rec in self.bindings}


def _encode_expr(node: ast.AST) -> Optional[dict]:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return {"t": "num", "v": node.value}
    if isinstance(node, ast.Name):
        return {"t": "name", "id": node.id}
    if isinstance(node, ast.Attribute):
        name = dotted(node)
        return {"t": "dot", "d": name} if name else None
    if isinstance(node, ast.BinOp):
        op = _BINOPS.get(type(node.op))
        left = _encode_expr(node.left)
        right = _encode_expr(node.right)
        if op and left and right:
            return {"t": "bin", "op": op, "l": left, "r": right}
        return None
    if isinstance(node, ast.UnaryOp):
        op = _UNARYOPS.get(type(node.op))
        value = _encode_expr(node.operand)
        if op and value:
            return {"t": "un", "op": op, "v": value}
        return None
    return None


_GOOGLE_RAISES_RE = re.compile(r"^\s*Raises\s*:?\s*$")
_SECTION_RE = re.compile(
    r"^\s*(Args|Arguments|Returns|Yields|Attributes|Notes?|Examples?|"
    r"See Also|Warns|References|Parameters)\s*:?\s*$",
    re.IGNORECASE,
)
_EXC_NAME_RE = re.compile(r"^\s*([A-Za-z_][\w.]*)\s*(?::|$|\s)")


def _doc_raises(doc: Optional[str]) -> Optional[list[str]]:
    """Exception names documented under a ``Raises:`` section.

    Understands Google style (``Raises:`` then indented ``Name: why``)
    and NumPy style (``Raises`` underlined with dashes).  Returns None
    when the docstring has no Raises section.
    """
    if not doc:
        return None
    lines = doc.splitlines()
    names: list[str] = []
    in_section = False
    found = False
    for i, line in enumerate(lines):
        if not in_section:
            if _GOOGLE_RAISES_RE.match(line):
                # NumPy style has a dashed underline on the next line;
                # Google style goes straight to the entries.  Both open
                # the section.
                in_section = True
                found = True
            continue
        stripped = line.strip()
        if not stripped or set(stripped) <= {"-"}:
            continue
        if _SECTION_RE.match(line):
            in_section = False
            continue
        match = _EXC_NAME_RE.match(line)
        if match and (match.group(1)[:1].isupper() or "." in match.group(1)):
            names.append(match.group(1))
    if not found:
        return None
    # Deduplicate, preserving order.
    return list(dict.fromkeys(names))


class _Extractor:
    def __init__(self, summary: ModuleSummary):
        self.s = summary

    def run(self, ctx: ModuleContext) -> None:
        for stmt in ctx.tree.body:
            self._module_stmt(stmt, conditional=False)
        # References are only useful when their base is an imported name
        # (that is how another module's symbol can be reached), so filter
        # on the import bindings to keep summaries small.
        imported = {
            local for rec in self.s.imports for _target, local in rec["names"]
        }
        refs: set[str] = set()
        for node in ctx.nodes:
            if isinstance(node, ast.Attribute):
                name = dotted(node)
                if name and name.split(".")[0] in imported:
                    refs.add(".".join(name.split(".")[:2]))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    refs.add(node.id)
        self.s.refs = sorted(refs)

    # -- module-level statements -------------------------------------------

    def _module_stmt(self, stmt: ast.stmt, conditional: bool) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._import(stmt, top=True, conditional=conditional)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._binding(stmt.name, "def", stmt.lineno, conditional)
            self._function(stmt, prefix="")
        elif isinstance(stmt, ast.ClassDef):
            self._binding(stmt.name, "class", stmt.lineno, conditional)
            bases = [d for d in (dotted(b) for b in stmt.bases) if d]
            self.s.classes[stmt.name] = {"bases": bases, "line": stmt.lineno}
            for inner in stmt.body:
                self._scan_nested(inner, prefix=f"{stmt.name}.")
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "__all__":
                    self._all(stmt)
                    continue
                if target.id == EXPORT_TABLE:
                    self._export_table(stmt.value, conditional)
                self._binding(target.id, "assign", stmt.lineno, conditional)
                if stmt.value is not None:
                    expr = _encode_expr(stmt.value)
                    if expr is not None:
                        self.s.constants[target.id] = expr
                    else:
                        self.s.constants.pop(target.id, None)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name) and stmt.target.id == "__all__":
                self.s.all_dynamic = True
        elif isinstance(stmt, (ast.If, ast.Try)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._module_stmt(child, conditional=True)
                elif isinstance(child, ast.ExceptHandler):
                    for inner in child.body:
                        self._module_stmt(inner, conditional=True)
        else:
            self._scan_nested(stmt, prefix="")

    def _all(self, stmt: ast.stmt) -> None:
        value = getattr(stmt, "value", None)
        self.s.all_line = stmt.lineno
        if isinstance(value, (ast.List, ast.Tuple)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in value.elts
        ):
            self.s.all_names = [e.value for e in value.elts]
        else:
            self.s.all_dynamic = True

    def _export_table(self, value, conditional: bool) -> None:
        """Bind each name of a package's export table as its lazy import.

        ``{"repro.core.space": ("TupleSpace",)}`` binds ``TupleSpace`` as
        ``from repro.core.space import TupleSpace`` would, but as an
        import made at first access (``top`` False), as the package's
        ``__getattr__`` makes it.
        """
        if not isinstance(value, ast.Dict):
            return
        for key, names in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
                and isinstance(names, (ast.Tuple, ast.List))
            ):
                continue
            members = [
                e for e in names.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            self.s.imports.append(
                {"kind": "from", "module": key.value, "level": 0,
                 "names": [[e.value, e.value] for e in members],
                 "line": key.lineno, "top": False}
            )
            for e in members:
                self._binding(e.value, "from", e.lineno, conditional,
                              module=key.value, level=0, orig=e.value, lazy=True)

    def _binding(self, name: str, kind: str, line: int, conditional: bool, **extra) -> None:
        rec = {"name": name, "kind": kind, "line": line, "cond": conditional}
        rec.update(extra)
        self.s.bindings.append(rec)

    def _import(self, stmt, top: bool, conditional: bool) -> None:
        if isinstance(stmt, ast.Import):
            names = [[alias.name, alias.asname or alias.name.split(".")[0]]
                     for alias in stmt.names]
            self.s.imports.append(
                {"kind": "import", "module": None, "level": 0,
                 "names": names, "line": stmt.lineno, "top": top}
            )
            if top:
                for target, local in names:
                    self._binding(local, "import", stmt.lineno, conditional,
                                  target=target)
        else:
            names = [[alias.name, alias.asname or alias.name]
                     for alias in stmt.names]
            self.s.imports.append(
                {"kind": "from", "module": stmt.module, "level": stmt.level,
                 "names": names, "line": stmt.lineno, "top": top}
            )
            if top:
                for orig, local in names:
                    if orig == "*":
                        continue
                    self._binding(local, "from", stmt.lineno, conditional,
                                  module=stmt.module, level=stmt.level, orig=orig)

    # -- nested scopes ------------------------------------------------------

    def _scan_nested(self, node: ast.AST, prefix: str) -> None:
        """Record imports/raises/functions inside non-function statements."""
        stack: list[ast.AST] = [node]
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(child, prefix=prefix)
                continue
            if isinstance(child, ast.ClassDef):
                for inner in child.body:
                    self._scan_nested(inner, prefix=f"{prefix}{child.name}.")
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                self._import(child, top=False, conditional=True)
            elif isinstance(child, ast.Raise) and child.exc is not None:
                name = dotted(child.exc.func if isinstance(child.exc, ast.Call)
                               else child.exc)
                if name:
                    self.s.raises.append(
                        {"name": name, "line": child.lineno, "func": None}
                    )
            stack.extend(ast.iter_child_nodes(child))

    def _function(self, node, prefix: str) -> None:
        qualname = prefix + node.name
        raises: list[str] = []
        stack: list[ast.AST] = list(node.body)
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._function(child, prefix=f"{qualname}.")
                continue
            if isinstance(child, ast.ClassDef):
                for inner in child.body:
                    self._scan_nested(inner, prefix=f"{qualname}.")
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                self._import(child, top=False, conditional=True)
            elif isinstance(child, ast.Raise) and child.exc is not None:
                name = dotted(child.exc.func if isinstance(child.exc, ast.Call)
                               else child.exc)
                if name:
                    raises.append(name)
                    self.s.raises.append(
                        {"name": name, "line": child.lineno, "func": qualname}
                    )
            stack.extend(ast.iter_child_nodes(child))
        self.s.functions[qualname] = {
            "line": node.lineno,
            "raises": sorted(set(raises)),
            "doc_raises": _doc_raises(ast.get_docstring(node)),
        }


def summarize(ctx: ModuleContext) -> ModuleSummary:
    """Build the summary of one parsed module."""
    summary = ModuleSummary(module=ctx.module, path=ctx.path)
    _Extractor(summary).run(ctx)
    summary.effects = extract_effects(ctx)
    return summary
