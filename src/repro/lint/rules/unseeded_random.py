"""Rule ``unseeded-random`` — randomness only via named seeded streams.

Reproducible runs (and the NS-2 substream property: adding a component
never perturbs the draws of another) require every stochastic component
to pull from :class:`repro.des.random_streams.StreamRegistry`.  Calling
the module-level ``random.*`` functions uses the global, shared,
wall-seeded generator and silently breaks both properties.

Instantiating ``random.Random(seed)`` explicitly stays allowed — that is
exactly what the stream registry does — as does importing ``random`` for
type annotations.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint import astutil
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

DEFAULT_ALLOW = ("repro.des.random_streams",)

#: Names importable from ``random`` without a finding.
ALLOWED_NAMES = frozenset({"Random", "SystemRandom"})


@register
class UnseededRandomRule(Rule):
    id = "unseeded-random"
    summary = (
        "use named streams from des.random_streams, not the global "
        "random module functions"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        allow = tuple(self.options.get("allow-modules", DEFAULT_ALLOW))
        if ctx.in_package(*allow):
            return

        imports = astutil.import_nodes(ctx.nodes)
        for local, (node, name) in astutil.from_imported(imports, "random").items():
            if name not in ALLOWED_NAMES:
                yield self.finding(
                    ctx,
                    node,
                    f"'from random import {name}' uses the global generator; "
                    f"draw from a named StreamRegistry stream instead",
                )

        aliases = astutil.module_aliases(imports, "random")
        for node in ctx.nodes:
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and node.attr not in ALLOWED_NAMES
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"random.{node.attr} uses the global generator; draw from "
                    f"a named StreamRegistry stream (des.random_streams)",
                )
