"""Path <-> module-name mapping and import resolution.

This module is the single source of truth for "what module does this
file import as" — the per-file checker (:func:`repro.lint.checker.
module_name_for`) and the project pass both delegate here, so the two
passes can never disagree about module names.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

#: Package components a repo path is anchored on.  ``src/repro/des/x.py``
#: imports as ``repro.des.x`` no matter where the repo is checked out.
MODULE_ANCHORS = ("repro", "tests", "benchmarks", "examples")


def module_name_for(path: Path) -> str:
    """Derive the dotted module name a file would import as.

    Anchored on the first :data:`MODULE_ANCHORS` component when present
    (``src/repro/core/clock.py`` -> ``repro.core.clock``), otherwise the
    bare stem — fixtures can always pass an explicit module name.
    """
    parts = list(Path(path).with_suffix("").parts)
    for anchor in MODULE_ANCHORS:
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ImportResolver:
    """Resolves import statements against a known set of project modules."""

    def __init__(self, modules: set[str]):
        self.modules = set(modules)
        #: Dotted prefixes that are (or contain) project modules, so a
        #: ``from repro.tpwire import frames`` resolves even when
        #: ``repro.tpwire`` itself (the ``__init__``) is in the set but
        #: ``repro`` alone is not.
        self._prefixes: set[str] = set()
        for module in self.modules:
            parts = module.split(".")
            for i in range(1, len(parts) + 1):
                self._prefixes.add(".".join(parts[:i]))

    def known(self, module: str) -> bool:
        return module in self.modules

    def project_module(self, dotted: str) -> Optional[str]:
        """The longest project module that is ``dotted`` or a prefix of it."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            candidate = ".".join(parts[:i])
            if candidate in self.modules:
                return candidate
        return None

    def resolve_base(
        self, importer: str, importer_is_package: bool, module_text: Optional[str], level: int
    ) -> Optional[str]:
        """Absolute module a ``from ... import`` statement names.

        ``level`` is the number of leading dots; ``module_text`` is the
        dotted part after them (or ``None`` for a bare ``from . import``).
        Returns ``None`` when a relative import climbs past the package
        root.
        """
        if level == 0:
            return module_text
        parts = importer.split(".")
        if not importer_is_package:
            parts = parts[:-1]
        drop = level - 1
        if drop > len(parts):
            return None
        if drop:
            parts = parts[:-drop]
        if module_text:
            parts = parts + module_text.split(".")
        return ".".join(parts) if parts else None

    def resolve_from_targets(
        self,
        importer: str,
        importer_is_package: bool,
        module_text: Optional[str],
        level: int,
        names: list[str],
    ) -> list[tuple[str, str, Optional[str]]]:
        """Resolve one ``from base import a, b`` statement.

        Returns ``(local_name, base_module, symbol)`` triples where
        ``symbol`` is ``None`` when the imported name is itself a module
        (``from repro.tpwire import frames``).
        """
        base = self.resolve_base(importer, importer_is_package, module_text, level)
        resolved: list[tuple[str, str, Optional[str]]] = []
        if base is None:
            return resolved
        for name in names:
            submodule = f"{base}.{name}"
            if submodule in self.modules or submodule in self._prefixes:
                resolved.append((name, submodule, None))
            else:
                resolved.append((name, base, name))
        return resolved
