"""Rule ``wall-clock`` — no direct wall-clock reads in simulation code.

The paper's Table 3 validation holds only if a simulated run is a pure
function of its inputs.  A stray ``time.time()``/``time.sleep()`` in the
middleware or the models couples results to the host machine, so all
time must flow from the injected :class:`repro.core.clock.Clock` (or a
:class:`repro.des.Simulator`).  The clock implementations themselves —
``repro.core.clock`` — are the single allowed boundary to the OS clock
(``allow-modules`` option).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

#: Wall-clock attributes of the ``time`` module.
TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    }
)

#: Wall-clock constructors on ``datetime.datetime`` / ``datetime.date``.
DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

DEFAULT_ALLOW = ("repro.core.clock",)


@register
class WallClockRule(Rule):
    id = "wall-clock"
    summary = (
        "simulation code must use the injected Clock/Simulator time, "
        "never time.*/datetime.now directly"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        allow = tuple(self.options.get("allow-modules", DEFAULT_ALLOW))
        if ctx.in_package(*allow):
            return

        imports = astutil.import_nodes(ctx.nodes)
        time_aliases = astutil.module_aliases(imports, "time")
        datetime_aliases = astutil.module_aliases(imports, "datetime")
        datetime_classes = {
            local
            for local, (_, name) in astutil.from_imported(
                imports, "datetime"
            ).items()
            if name in ("datetime", "date")
        }

        for local, (node, name) in astutil.from_imported(imports, "time").items():
            if name in TIME_ATTRS:
                yield self.finding(
                    ctx,
                    node,
                    f"'from time import {name}' bypasses the injected clock; "
                    f"take a Clock (repro.core.clock) instead",
                )

        for node in ctx.nodes:
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if (
                isinstance(value, ast.Name)
                and value.id in time_aliases
                and node.attr in TIME_ATTRS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"direct wall-clock call time.{node.attr}; simulation code "
                    f"must use the injected Clock/Simulator time",
                )
            elif node.attr in DATETIME_ATTRS and (
                (isinstance(value, ast.Name) and value.id in datetime_classes)
                or (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id in datetime_aliases
                    and value.attr in ("datetime", "date")
                )
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"datetime.{node.attr}() reads the wall clock; simulation "
                    f"code must use the injected Clock/Simulator time",
                )
