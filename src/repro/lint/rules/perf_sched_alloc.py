"""Rule ``perf-sched-alloc`` — no per-event closures/containers at
scheduling call sites.

The simulator core schedules millions of events per run, and the entry
protocol (``sim.call_after(delay, fn, *args)`` / ``sim.after`` /
``sim.at``) exists precisely so callers hand over the function and its
arguments without wrapping them.  A ``lambda`` at a scheduling call site
allocates a closure per event; a tuple/list literal argument allocates a
container per event.  Both put allocation churn on the hottest loop in
the repository — the exact churn the entry-tuple fast path
removes — and both have a zero-cost spelling::

    sim.call_after(delay, self._finish, done, result)   # not a lambda
    sim.after(gap, handler)                             # no arg tuple

The check is syntactic: any direct argument of an ``after`` / ``at`` /
``call_after`` / ``call_at`` method call that is a ``lambda`` or a
tuple/list display is flagged, whatever the receiver.  For a genuine
one-off (setup code that schedules once), suppress the line with
``# lint: disable=perf-sched-alloc``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Dotted prefixes of the event-scheduling hot-path layers.
DEFAULT_HOT_LAYERS = ("repro.des", "repro.tpwire")

#: Scheduling entry points of the simulator/scheduler protocol.
SCHEDULING_METHODS = frozenset({"after", "at", "call_after", "call_at"})


@register
class PerfSchedAllocRule(Rule):
    id = "perf-sched-alloc"
    summary = (
        "scheduling call sites must not allocate per event; pass the "
        "callback and its arguments unwrapped instead of a lambda or a "
        "tuple/list literal"
    )
    default_scope = DEFAULT_HOT_LAYERS

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call) or not isinstance(
                node.func, ast.Attribute
            ):
                continue
            if node.func.attr not in SCHEDULING_METHODS:
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                if isinstance(argument, ast.Lambda):
                    yield self.finding(
                        ctx,
                        argument,
                        "lambda at a scheduling call site allocates a "
                        "closure per event; pass the callback and its "
                        "arguments via the *args protocol",
                    )
                elif isinstance(argument, (ast.Tuple, ast.List)):
                    yield self.finding(
                        ctx,
                        argument,
                        "tuple/list literal at a scheduling call site "
                        "allocates a container per event; pass the "
                        "elements as separate *args",
                    )
