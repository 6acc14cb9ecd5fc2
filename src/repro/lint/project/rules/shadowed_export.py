"""Rule ``shadowed-export`` — ``__all__`` and imports must agree.

Three quiet ways a module's public face can lie:

* ``__all__`` names something the module never defines or imports — a
  ghost export that turns ``from pkg import *`` (and documentation
  generated from ``__all__``) into a runtime ``AttributeError``;
* a package's export table (:func:`repro.lazy_exports`) takes a name
  from a module that neither defines nor imports it — the lazy import
  fails only on first access, where an eager one failed on import;
* one top-level import unconditionally rebinds a name another import
  just bound — the first import survives only in the reader's head.
  Conditional rebinding (``try``/``except ImportError`` fallbacks, and
  anything under ``if``) is the standard compatibility idiom and stays
  allowed.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import ProjectRule, register

_IMPORT_KINDS = ("import", "from")


@register
class ShadowedExportRule(ProjectRule):
    id = "shadowed-export"
    summary = (
        "__all__ and export-table entries must resolve to real bindings; "
        "imports must not silently shadow earlier imports"
    )

    def check(self, index) -> Iterator[Finding]:
        for module in sorted(index.summaries):
            if not self.in_scope(module):
                continue
            summary = index.summaries[module]
            bound = {rec["name"] for rec in summary.bindings}

            # A module-level __getattr__ (PEP 562) serves names lazily;
            # __all__ entries beyond the static bindings are then
            # legitimate and unknowable here.
            has_module_getattr = "__getattr__" in summary.functions

            if summary.all_names is not None and not has_module_getattr:
                seen: set[str] = set()
                for name in summary.all_names:
                    if name in seen:
                        yield self.finding_at(
                            summary.path,
                            summary.all_line,
                            f"duplicate __all__ entry {name!r}",
                        )
                        continue
                    seen.add(name)
                    if name not in bound:
                        yield self.finding_at(
                            summary.path,
                            summary.all_line,
                            f"__all__ names {name!r}, which {module} neither "
                            f"defines nor imports",
                        )

            for rec in summary.bindings:
                if rec.get("lazy"):
                    yield from self._check_table_entry(index, summary, rec)

            first_import: dict[str, dict] = {}
            for rec in summary.bindings:
                if rec["kind"] not in _IMPORT_KINDS or rec["cond"]:
                    continue
                earlier = first_import.get(rec["name"])
                if earlier is not None and earlier["line"] != rec["line"]:
                    yield self.finding_at(
                        summary.path,
                        rec["line"],
                        f"import of {rec['name']!r} shadows the import on "
                        f"line {earlier['line']}",
                    )
                first_import.setdefault(rec["name"], rec)

    def _check_table_entry(self, index, summary, rec: dict) -> Iterator[Finding]:
        """A table entry must name a submodule or a binding of its module.

        A module outside the index (a run over part of the tree) cannot
        be checked and is passed over.
        """
        source, name = rec["module"], rec["orig"]
        if f"{source}.{name}" in index.summaries or source not in index.summaries:
            return
        if name not in index.summaries[source].binding_map():
            yield self.finding_at(
                summary.path,
                rec["line"],
                f"export table takes {name!r} from {source}, which neither "
                f"defines nor imports it",
            )
