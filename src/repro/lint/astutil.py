"""Small AST helpers shared by the rules."""

from __future__ import annotations

import ast
from typing import Optional, Union


ImportNode = Union[ast.Import, ast.ImportFrom]


def import_nodes(nodes: list[ast.AST]) -> list[ImportNode]:
    """Every ``import``/``from ... import`` statement among ``nodes`` (a
    module's walk-order node list), for the alias lookups below."""
    return [
        node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
    ]


def module_aliases(imports: list[ImportNode], module: str) -> set[str]:
    """Local names that refer to ``module`` via ``import module [as alias]``.

    Dotted imports count when the root matches (``import time.x as t``
    does not occur for the modules we track, but ``import time as _time``
    must map ``_time`` -> ``time``).
    """
    aliases: set[str] = set()
    for node in imports:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module or alias.name.startswith(module + "."):
                    aliases.add(alias.asname or alias.name.split(".")[0])
    return aliases


def from_imported(
    imports: list[ImportNode], module: str
) -> dict[str, tuple[ast.ImportFrom, str]]:
    """``from module import name [as alias]`` -> {local: (node, name)}."""
    imported: dict[str, tuple[ast.ImportFrom, str]] = {}
    for node in imports:
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node, alias.name)
    return imported


def terminal_name(node: ast.AST) -> Optional[str]:
    """The final identifier of a Name/Attribute chain (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_in_scope(node: ast.AST):
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


def int_literal(node: ast.AST) -> Optional[int]:
    """The value of an int literal, including unary minus, else ``None``."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and type(node.operand.value) is int
    ):
        return -node.operand.value
    return None


def contains_raise(nodes: list[ast.stmt]) -> bool:
    """True when any statement (recursively) raises.

    Nested function/class definitions do not count — a ``raise`` in a
    callback defined inside the handler does not re-raise the exception.
    """
    stack: list[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise):
            return True
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False
