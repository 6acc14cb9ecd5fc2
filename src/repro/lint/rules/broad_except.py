"""Rule ``broad-except`` — no silent catch-alls.

``except:`` and ``except Exception:`` that neither re-raise nor log
swallow the very protocol violations the domain hierarchies exist to
surface — a CRC mismatch silently eaten inside a polling loop shows up
only as an inexplicably wrong Table 4 row.  A broad handler is accepted
when its body re-raises (any ``raise``) or records the failure through a
logging-style call.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Exception names considered overbroad in an ``except`` clause.
BROAD_NAMES = frozenset({"Exception", "BaseException"})

#: Method/function names that count as "the failure was recorded".
LOGGING_NAMES = frozenset(
    {
        "debug",
        "info",
        "warning",
        "warn",
        "error",
        "exception",
        "critical",
        "log",
        "print",
        "record",
    }
)


@register
class BroadExceptRule(Rule):
    id = "broad-except"
    summary = "no bare except / except Exception without re-raise or logging"
    default_scope = None  # applies everywhere, tests included

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node)
            if broad is None:
                continue
            if astutil.contains_raise(node.body) or self._logs(node.body):
                continue
            clause = "bare 'except:'" if broad == "" else f"'except {broad}:'"
            yield self.finding(
                ctx,
                node,
                f"{clause} swallows errors silently; catch the narrow "
                f"repro.*.errors class, re-raise, or log the failure",
            )

    @staticmethod
    def _broad_name(handler: ast.ExceptHandler) -> str | None:
        """'' for bare except, the name for Exception/BaseException, else None."""
        if handler.type is None:
            return ""
        names = []
        if isinstance(handler.type, ast.Tuple):
            names = [astutil.terminal_name(e) for e in handler.type.elts]
        else:
            names = [astutil.terminal_name(handler.type)]
        for name in names:
            if name in BROAD_NAMES:
                return name
        return None

    @staticmethod
    def _logs(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = astutil.terminal_name(node.func)
                    if name in LOGGING_NAMES:
                        return True
        return False
