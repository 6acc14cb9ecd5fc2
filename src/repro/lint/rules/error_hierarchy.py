"""Rule ``error-hierarchy`` — raise domain errors, not generic builtins.

Every subsystem ships an exception hierarchy (``repro.core.errors``,
``repro.des.errors``, ``repro.tpwire.errors``, ...).  Raising a bare
``Exception``/``RuntimeError`` instead makes failures indistinguishable
to callers that must react differently to, say, a CRC mismatch versus a
lease expiry — and forces the overbroad ``except Exception`` handlers
that rule ``broad-except`` rejects.

Builtin *contract* errors stay allowed by default (``ValueError``,
``TypeError``, ... — argument validation at API boundaries is their
idiomatic job); the ``allowed-builtins`` option controls the list.
Domain exceptions may still subclass a builtin (e.g. ``RuntimeError``)
so existing ``except`` clauses keep working.
"""

from __future__ import annotations

import ast
import builtins
from typing import Iterator, Optional

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Builtin exceptions allowed in ``raise`` by default: contract errors
#: and control-flow exceptions with dedicated language semantics.
DEFAULT_ALLOWED = (
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "AttributeError",
    "NotImplementedError",
    "AssertionError",
    "StopIteration",
    "StopAsyncIteration",
    "KeyboardInterrupt",
    "SystemExit",
)

#: Every builtin exception name.
BUILTIN_EXCEPTIONS = frozenset(
    name
    for name, obj in builtins.__dict__.items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
)


@register
class ErrorHierarchyRule(Rule):
    id = "error-hierarchy"
    summary = (
        "raise the subsystem's repro.*.errors classes, not bare "
        "Exception/generic builtin errors"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        allowed = frozenset(self.options.get("allowed-builtins", DEFAULT_ALLOWED))
        for node in ctx.nodes:
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = self._raised_name(node.exc)
            if name is None:
                continue
            if name in BUILTIN_EXCEPTIONS and name not in allowed:
                yield self.finding(
                    ctx,
                    node,
                    f"raise of generic builtin {name!r}; use the subsystem's "
                    f"repro.*.errors hierarchy (subclassing {name} keeps "
                    f"existing handlers working)",
                )

    @staticmethod
    def _raised_name(exc: ast.AST) -> Optional[str]:
        if isinstance(exc, ast.Call):
            exc = exc.func
        # Only bare names can be builtins; ``module.Error`` is a domain class.
        if isinstance(exc, ast.Name):
            return exc.id
        return None
