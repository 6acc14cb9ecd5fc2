"""Per-module context handed to every rule."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


@dataclass
class ModuleContext:
    """One parsed source file as the rules see it.

    ``module`` is the dotted import name (``repro.core.client``); rules
    scope themselves by module prefix, so fixture snippets in tests can
    opt into any scope by passing a synthetic module name.  ``nodes`` is
    every node of ``tree`` in ``ast.walk`` order, walked once here so
    the rules iterate a list instead of re-walking the tree.
    """

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    nodes: list[ast.AST] = field(default_factory=list)

    @classmethod
    def from_source(cls, source: str, *, path: str, module: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            module=module,
            source=source,
            tree=tree,
            lines=source.splitlines(),
            nodes=list(ast.walk(tree)),
        )

    def in_package(self, *prefixes: str) -> bool:
        """True when the module sits inside any of the dotted prefixes."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )
