"""Rule ``float-time-eq`` — no ``==``/``!=`` on simulated timestamps.

Simulated timestamps are floats accumulated through repeated addition
(event times, lease expiries, ``clock.now()`` readings).  Exact equality
between two such values depends on summation order, so an ``==`` that
holds in one scheduler interleaving fails in another — precisely the
kind of silent nondeterminism that corrupts Table 3/Table 4 numbers.
Compare with ``<=``/``>=`` against a deadline, or use an explicit
tolerance.

Detection is a name heuristic: an operand is timestamp-like when it is a
call to ``now()``/``.now()`` or an identifier matching the configured
patterns (``*_time``, ``*_at``, ``now``, ``deadline``, ``timestamp``,
``expiry``, ...).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

DEFAULT_PATTERNS = (
    r".*_time$",
    r".*_at$",
    r".*_deadline$",
    r"^now$",
    r"^deadline$",
    r"^timestamp$",
    r"^expiry$",
    r"^expires$",
)


@register
class FloatTimeEqRule(Rule):
    id = "float-time-eq"
    summary = (
        "simulated timestamps are floats; compare with tolerance or "
        "ordering, never == / !="
    )

    def __init__(self, config):
        super().__init__(config)
        patterns = self.options.get("patterns", DEFAULT_PATTERNS)
        self._regex = re.compile("|".join(f"(?:{p})" for p in patterns))

    def _timestamp_like(self, node: ast.AST) -> Optional[str]:
        """A short description of why the operand looks like a timestamp."""
        if isinstance(node, ast.Call):
            name = astutil.terminal_name(node.func)
            if name == "now":
                return "now()"
            return None
        name = astutil.terminal_name(node)
        if name is not None and self._regex.match(name):
            return name
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                # `x == None`-style sentinel checks are not float equality.
                if any(
                    isinstance(o, ast.Constant) and o.value is None
                    for o in (left, right)
                ):
                    continue
                for operand in (left, right):
                    why = self._timestamp_like(operand)
                    if why is not None:
                        yield self.finding(
                            ctx,
                            node,
                            f"equality on timestamp-like value {why!r}; float "
                            f"sim times need ordering or tolerance comparisons",
                        )
                        break
