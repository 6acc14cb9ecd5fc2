"""Rule ``layer-purity`` — no OS concurrency/IO inside the pure layers.

The discrete-event layers (``repro.des``, ``repro.tpwire``,
``repro.net``, ``repro.hw``) are single-threaded coroutine machines; a
``threading`` or ``socket`` import there either breaks determinism or
smuggles real IO into what Table 3 validates as a closed model.  Real
concurrency lives in ``repro.core.transports``/``repro.core.server``
(the paper's socket wrapper), which are outside these layers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

DEFAULT_LAYERS = ("repro.des", "repro.tpwire", "repro.net", "repro.hw")

DEFAULT_FORBIDDEN = (
    "threading",
    "socket",
    "asyncio",
    "multiprocessing",
    "subprocess",
    "concurrent",
    "selectors",
    "ssl",
)


@register
class LayerPurityRule(Rule):
    id = "layer-purity"
    summary = (
        "pure simulation layers must not import threading/socket-style "
        "OS concurrency modules"
    )
    default_scope = DEFAULT_LAYERS

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        forbidden = tuple(self.options.get("forbidden-modules", DEFAULT_FORBIDDEN))

        def is_forbidden(module_name: str) -> bool:
            root = module_name.split(".")[0]
            return root in forbidden

        for node in ctx.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if is_forbidden(alias.name):
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {alias.name!r} in pure simulation "
                            f"module {ctx.module}; concurrency belongs in "
                            f"core.transports/core.server",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module is not None and node.level == 0 and is_forbidden(node.module):
                    yield self.finding(
                        ctx,
                        node,
                        f"import from {node.module!r} in a pure simulation layer; "
                        f"concurrency belongs in core.transports/core.server",
                    )
