"""Rule ``dead-public-api`` — every package export must have a user.

A name re-exported from a package ``__init__`` is a promise: "this is
the supported way in".  When no program in the project — sources,
benchmarks or examples (the index always covers all configured roots,
not just the paths being linted) — references the underlying symbol
from outside its defining module, the promise is dead weight that still
costs review attention and API-compatibility care.  Tests do not count:
a module under the ``tests`` root, or any ``test_*.py`` or
``conftest.py``, exercises an export without being a reason to keep it.
Findings are warnings: an export can be intentionally forward-looking,
in which case list it under ``allow`` in
``[tool.repro-lint.dead-public-api]`` or delete the re-export.

References are counted on the *defining* symbol, so use through either
the package (``repro.net.TpwireAgent``) or the submodule
(``repro.net.tpwire_agent.TpwireAgent``) keeps an export alive.
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import Iterator

from repro.lint.findings import Finding, Severity
from repro.lint.registry import ProjectRule, register


@register
class DeadPublicApiRule(ProjectRule):
    id = "dead-public-api"
    summary = (
        "package __init__ exports whose symbol no program references "
        "outside its defining module"
    )
    default_severity = Severity.WARNING

    def check(self, index) -> Iterator[Finding]:
        allow = set(self.options.get("allow", ()))
        used = self._used_symbols(index)

        for module in sorted(index.summaries):
            summary = index.summaries[module]
            if not summary.is_package or not self.in_scope(module):
                continue
            bindings = summary.binding_map()
            exported = (
                summary.all_names
                if summary.all_names is not None
                else sorted(
                    rec["name"] for rec in summary.bindings if rec["kind"] == "from"
                )
            )
            for name in exported:
                if name in allow or (name.startswith("__") and name.endswith("__")):
                    # Dunders (__version__, ...) are module metadata with
                    # external consumers by convention, not API surface.
                    continue
                binding = bindings.get(name)
                if binding is None or binding["kind"] == "import":
                    continue
                resolved = index.resolve_symbol(module, name)
                if resolved is None:
                    continue
                def_module, def_binding = resolved
                if f"{def_module}.{def_binding['name']}" in index.summaries:
                    continue  # a re-exported submodule, not a symbol
                if (def_module, def_binding["name"]) in used:
                    continue
                yield self.finding_at(
                    summary.path,
                    binding["line"],
                    f"{module} exports {name}, but {def_module}."
                    f"{def_binding['name']} is never referenced by a program "
                    f"outside its defining module",
                )

    @staticmethod
    def _used_symbols(index) -> set:
        """Every ``(defining_module, name)`` referenced from another program.

        Built from the per-module ``refs`` (loaded names whose base is an
        import), so a plain re-export line does not count as a use — only
        code that actually touches the symbol does.  Function-local
        imports count too: a lazily imported symbol is no less used.
        """
        used: set = set()
        for module, summary in index.summaries.items():
            if _is_test(summary.path):
                continue
            refs = set(summary.refs)
            # local alias -> project module, from *every* import record.
            aliases: dict[str, str] = {}
            for rec in summary.imports:
                if rec["kind"] == "import":
                    for target, local in rec["names"]:
                        head = target.split(".")[0]
                        if local == target or local != head:
                            if target in index.summaries:
                                aliases[local] = target
                        elif head in index.summaries:
                            aliases[local] = head
                    continue
                base = index.resolver.resolve_base(
                    module, summary.is_package, rec["module"], rec["level"]
                )
                if base is None:
                    continue
                for orig, local in rec["names"]:
                    if orig == "*":
                        continue
                    sub = f"{base}.{orig}"
                    if sub in index.summaries:
                        aliases[local] = sub
                    elif local in refs and base in index.summaries:
                        resolved = index.resolve_symbol(base, orig)
                        if resolved is not None and resolved[0] != module:
                            used.add((resolved[0], resolved[1]["name"]))
            for ref in refs:
                if "." not in ref:
                    continue
                alias, attr = ref.split(".", 1)
                target = aliases.get(alias)
                if target is None:
                    continue
                resolved = index.resolve_symbol(target, attr)
                if resolved is not None and resolved[0] != module:
                    used.add((resolved[0], resolved[1]["name"]))
        return used


def _is_test(path: str) -> bool:
    parts = PurePosixPath(path).parts
    name = parts[-1] if parts else ""
    return (
        parts[:1] == ("tests",)
        or name == "conftest.py"
        or (name.startswith("test_") and name.endswith(".py"))
    )
