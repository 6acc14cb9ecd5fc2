"""Rule ``mutable-default`` — no mutable default argument values.

A ``def f(history=[])`` default is evaluated once and shared across
every call; in long-running simulations this aliases state between
supposedly independent components (two buses sharing one retry log) and
is a classic source of run-order-dependent results.  Use ``None`` plus
an in-body default instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Calls to these bare names as defaults build a fresh-but-shared object.
MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "deque", "defaultdict"})

MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)


@register
class MutableDefaultRule(Rule):
    id = "mutable-default"
    summary = "default argument values must not be mutable objects"
    default_scope = None  # applies everywhere, tests included

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default in {label!r} is shared across calls; "
                        f"use None and create it in the body",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, MUTABLE_LITERALS):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in MUTABLE_CALLS
        )
