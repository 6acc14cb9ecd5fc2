"""Rule ``perf-pop0`` — no ``list.pop(0)`` / ``insert(0, ...)`` on hot paths.

Popping or inserting at the head of a Python list shifts every remaining
element, turning a FIFO into an O(n) structure.  The simulator core
(``repro.des``), the bus model (``repro.tpwire``) and the network layer
(``repro.net``) run these operations once per event or frame, so the cost
scales with the whole run — exactly the churn Brown's calendar-queue
design (and this repo's DES hot-path work) exists to avoid.  Use
``collections.deque`` with ``popleft()`` / ``appendleft()`` instead.

The check is syntactic: any ``<obj>.pop(0)`` with a single argument and
any ``<obj>.insert(0, item)`` is flagged, whatever ``<obj>`` is.  For the
rare receiver where index 0 is not a FIFO head (e.g. a dict keyed by
``0``), suppress the line with ``# lint: disable=perf-pop0``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Dotted prefixes of the event/frame hot-path layers.
DEFAULT_HOT_LAYERS = ("repro.des", "repro.tpwire", "repro.net")


def _is_zero_literal(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and type(node.value) is int
        and node.value == 0
    )


@register
class PerfPop0Rule(Rule):
    id = "perf-pop0"
    summary = (
        "hot-path modules must not use list.pop(0)/insert(0, ...); "
        "use collections.deque"
    )
    default_scope = DEFAULT_HOT_LAYERS

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            method = node.func.attr
            # dict.pop(0, default) takes two arguments; only the
            # single-argument list/deque form shifts elements.
            if (
                method == "pop"
                and len(node.args) == 1
                and not node.keywords
                and _is_zero_literal(node.args[0])
            ):
                yield self.finding(
                    ctx,
                    node,
                    "pop(0) shifts the whole list on every call; "
                    "use collections.deque and popleft()",
                )
            elif (
                method == "insert"
                and len(node.args) == 2
                and not node.keywords
                and _is_zero_literal(node.args[0])
            ):
                yield self.finding(
                    ctx,
                    node,
                    "insert(0, ...) shifts the whole list on every call; "
                    "use collections.deque and appendleft()",
                )
