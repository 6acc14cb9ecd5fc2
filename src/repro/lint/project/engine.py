"""The lint run: one pass over the files, then the project rules.

:func:`lint_paths` is the one entry point the CLI runs.  Each file is
read and parsed once into a :class:`~repro.lint.context.ModuleContext`:
the per-file rules run on it when the file lies under the requested
paths, and when any project rule is selected its
:class:`~repro.lint.project.symbols.ModuleSummary` is built from the
same context.  The summaries form one :class:`ProjectIndex` —
per-module symbol summaries, the import graph, an import/symbol
resolver — over which every selected
:class:`~repro.lint.registry.ProjectRule` runs.

The index always covers the configured project roots: the requested
paths only *filter reporting*, so a rule like ``dead-public-api`` sees
the tests that reference an export even when only ``src`` was asked
for.
"""

from __future__ import annotations

import builtins as _builtins
from pathlib import Path
from typing import Optional

from repro.lint.checker import (
    check_module,
    display_path,
    iter_python_files,
    parse_error,
)
from repro.lint.config import LintConfig
from repro.lint.context import ModuleContext
from repro.lint.findings import FileReport
from repro.lint.project.graph import ModuleGraph
from repro.lint.project.resolver import ImportResolver, module_name_for
from repro.lint.project.symbols import ModuleSummary, summarize
from repro.lint.registry import Rule, instantiate
from repro.lint.suppressions import SuppressionIndex

#: Default directories indexed relative to the config root.
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "examples")

#: Exception names every Python build defines as subclasses of
#: ``BaseException`` — the terminals of base-class resolution.
BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(_builtins)
    if isinstance(getattr(_builtins, name), type)
    and issubclass(getattr(_builtins, name), BaseException)
)


class ProjectIndex:
    """Everything a :class:`~repro.lint.registry.ProjectRule` may query.

    Read-only by convention: rules iterate :attr:`summaries`, walk
    :attr:`graph` / :attr:`all_edges` and call the resolution helpers;
    they never mutate the index.
    """

    def __init__(self, summaries: list[ModuleSummary], config: LintConfig):
        #: module name -> summary.  First file wins on a (rare)
        #: module-name collision; file order is deterministic so the
        #: choice is too.
        self.summaries: dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.summaries.setdefault(summary.module, summary)
        self.config = config
        self.resolver = ImportResolver(set(self.summaries))

        #: Every project-internal import edge:
        #: ``(importer, imported, line, top_level)``.  Layer rules use
        #: all of them; cycle detection uses only the top-level subset
        #: (a function-local import is a legitimate lazy cycle-breaker).
        self.all_edges: list[tuple[str, str, int, bool]] = []
        top_edges: dict[str, set[str]] = {}
        for module, summary in self.summaries.items():
            tops = top_edges.setdefault(module, set())
            for rec in summary.imports:
                for target in self._record_targets(summary, rec):
                    if target == module:
                        continue
                    self.all_edges.append((module, target, rec["line"], rec["top"]))
                    if rec["top"]:
                        tops.add(target)
        self.all_edges.sort()
        self.graph = ModuleGraph(top_edges)

        self._envs: dict[str, dict] = {}
        self._exc_memo: dict[tuple[str, str], bool] = {}

    # -- index construction helpers ----------------------------------------

    def _record_targets(self, summary: ModuleSummary, rec: dict) -> set[str]:
        """Project modules one import record reaches."""
        targets: set[str] = set()
        if rec["kind"] == "import":
            for dotted, _local in rec["names"]:
                found = self.resolver.project_module(dotted)
                if found:
                    targets.add(found)
            return targets
        base = self.resolver.resolve_base(
            summary.module, summary.is_package, rec["module"], rec["level"]
        )
        if base is None:
            return targets
        for orig, _local in rec["names"]:
            if orig == "*":
                found = self.resolver.project_module(base)
            else:
                sub = f"{base}.{orig}"
                found = sub if sub in self.summaries else self.resolver.project_module(base)
            if found:
                targets.add(found)
        return targets

    # -- symbol resolution --------------------------------------------------

    def resolve_symbol(
        self, module: str, name: str, _seen: Optional[set] = None
    ) -> Optional[tuple[str, dict]]:
        """Where ``module.name`` is actually defined.

        Chases ``from x import name`` re-export chains (with a cycle
        guard) and returns ``(defining_module, binding_record)``; a
        re-export whose origin is outside the project resolves to the
        re-exporting module itself.
        """
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return None
        seen.add((module, name))
        summary = self.summaries.get(module)
        if summary is None:
            return None
        binding = summary.binding_map().get(name)
        if binding is None:
            return None
        if binding["kind"] == "from":
            base = self.resolver.resolve_base(
                module, summary.is_package, binding.get("module"), binding.get("level", 0)
            )
            if base is not None:
                orig = binding.get("orig", name)
                if f"{base}.{orig}" in self.summaries:
                    return (module, binding)
                if base in self.summaries:
                    resolved = self.resolve_symbol(base, orig, seen)
                    if resolved is not None:
                        return resolved
        return (module, binding)

    def module_alias(self, module: str, local: str) -> Optional[str]:
        """Project module a module-level name refers to, if it is one."""
        summary = self.summaries.get(module)
        if summary is None:
            return None
        binding = summary.binding_map().get(local)
        if binding is None:
            return None
        if binding["kind"] == "import":
            target = binding.get("target", "")
            head = target.split(".")[0]
            if local == target or local != head:
                # ``import a.b.c`` with an asname binds the full target;
                # without one it binds only the head package.
                return target if target in self.summaries else None
            return head if head in self.summaries else None
        if binding["kind"] == "from":
            base = self.resolver.resolve_base(
                module, summary.is_package, binding.get("module"), binding.get("level", 0)
            )
            if base is None:
                return None
            sub = f"{base}.{binding.get('orig', local)}"
            return sub if sub in self.summaries else None
        return None

    # -- constant propagation -----------------------------------------------

    def const_env(self, module: str) -> dict:
        """Resolved numeric constants of one module (name -> value),
        memoized for the run."""
        if module in self._envs:
            return self._envs[module]
        env: dict = {}
        # Registered before evaluation so an import cycle terminates on
        # the (partial) environment instead of recursing forever.
        self._envs[module] = env
        summary = self.summaries.get(module)
        if summary is not None:
            for name in summary.constants:
                value = self.constant_value(module, name)
                if value is not None:
                    env[name] = value
        return env

    def constant_value(
        self, module: str, name: str, _seen: Optional[set] = None
    ) -> Optional[float]:
        """Numeric value of ``module.name``, followed across modules."""
        seen = _seen if _seen is not None else set()
        if (module, name) in seen:
            return None
        seen.add((module, name))
        summary = self.summaries.get(module)
        if summary is None:
            return None
        binding = summary.binding_map().get(name)
        if binding is None:
            return None
        if binding["kind"] == "assign":
            expr = summary.constants.get(name)
            return self._eval_expr(module, expr, seen) if expr else None
        if binding["kind"] == "from":
            base = self.resolver.resolve_base(
                module, summary.is_package, binding.get("module"), binding.get("level", 0)
            )
            if base is None:
                return None
            orig = binding.get("orig", name)
            if f"{base}.{orig}" in self.summaries:
                return None  # imported a submodule, not a value
            if base in self.summaries:
                return self.constant_value(base, orig, seen)
        return None

    def _eval_expr(self, module: str, expr: dict, seen: set) -> Optional[float]:
        kind = expr.get("t")
        if kind == "num":
            return expr["v"]
        if kind == "name":
            return self.constant_value(module, expr["id"], seen)
        if kind == "dot":
            parts = expr["d"].split(".")
            attr = parts[-1]
            head = ".".join(parts[:-1])
            if head in self.summaries:
                return self.constant_value(head, attr, seen)
            if len(parts) == 2:
                target = self.module_alias(module, parts[0])
                if target is not None:
                    return self.constant_value(target, attr, seen)
            return None
        if kind == "un":
            value = self._eval_expr(module, expr["v"], seen)
            if value is None:
                return None
            return {"-": lambda v: -v, "+": lambda v: +v, "~": lambda v: ~int(v)}[
                expr["op"]
            ](value)
        if kind == "bin":
            left = self._eval_expr(module, expr["l"], seen)
            right = self._eval_expr(module, expr["r"], seen)
            if left is None or right is None:
                return None
            try:
                return _BIN_EVAL[expr["op"]](left, right)
            except (ZeroDivisionError, TypeError, ValueError, OverflowError):
                return None
        return None

    # -- exception hierarchy ------------------------------------------------

    def is_exception_class(
        self, module: str, name: str, _seen: Optional[set] = None
    ) -> bool:
        """True when ``module.name`` (transitively) derives from a
        builtin exception."""
        key = (module, name)
        if key in self._exc_memo:
            return self._exc_memo[key]
        seen = _seen if _seen is not None else set()
        if key in seen:
            return False
        seen.add(key)
        result = self._is_exception_uncached(module, name, seen)
        self._exc_memo[key] = result
        return result

    def _is_exception_uncached(self, module: str, name: str, seen: set) -> bool:
        if name in BUILTIN_EXCEPTIONS:
            return True
        resolved = self.resolve_symbol(module, name)
        if resolved is None:
            return False
        def_module, binding = resolved
        summary = self.summaries.get(def_module)
        if summary is None or binding["kind"] != "class":
            return False
        klass = summary.classes.get(binding["name"])
        if klass is None:
            return False
        for base in klass["bases"]:
            parts = base.split(".")
            if parts[-1] in BUILTIN_EXCEPTIONS:
                return True
            if len(parts) == 1:
                if self.is_exception_class(def_module, base, seen):
                    return True
            else:
                target = self.module_alias(def_module, parts[0])
                if target is None and ".".join(parts[:-1]) in self.summaries:
                    target = ".".join(parts[:-1])
                if target is not None and self.is_exception_class(
                    target, parts[-1], seen
                ):
                    return True
        return False


_BIN_EVAL = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "//": lambda a, b: a // b,
    "%": lambda a, b: a % b,
    "**": lambda a, b: a ** b if abs(b) < 64 else None,
    "<<": lambda a, b: int(a) << int(b) if 0 <= b < 256 else None,
    ">>": lambda a, b: int(a) >> int(b) if 0 <= b < 256 else None,
    "|": lambda a, b: int(a) | int(b),
    "&": lambda a, b: int(a) & int(b),
    "^": lambda a, b: int(a) ^ int(b),
}


# -- the run ----------------------------------------------------------------


def project_roots(config: LintConfig) -> list[Path]:
    """Directories the index always covers, from ``[tool.repro-lint.project]``,
    under the config's root; none for a config without a root (the
    index then covers the paths linted)."""
    if config.root is None:
        return []
    options = config.rule_options.get("project", {})
    declared = options.get("roots", list(DEFAULT_ROOTS))
    return [config.root / entry for entry in declared if (config.root / entry).exists()]


def _one_pass(
    paths: list[Path], config: LintConfig, rules: list[Rule], *, index: bool
) -> tuple[dict[str, tuple[FileReport, SuppressionIndex]], Optional[ProjectIndex]]:
    """Parse each file once: per-file reports for the files under
    ``paths``, and (when ``index``) the project index over the roots."""
    wanted = {path.resolve() for path in iter_python_files(paths, config)}
    # ``paths`` outside the roots join the index; iter_python_files
    # yields a file under both only once.
    scan = [*(project_roots(config) or paths), *paths] if index else paths
    reports: dict[str, tuple[FileReport, SuppressionIndex]] = {}
    summaries: list[ModuleSummary] = []
    for file_path in iter_python_files(scan, config):
        display = display_path(file_path, config)
        module = module_name_for(Path(display))
        source = file_path.read_text(encoding="utf-8")
        try:
            ctx: Optional[ModuleContext] = ModuleContext.from_source(
                source, path=display, module=module
            )
        except SyntaxError as exc:
            ctx, error = None, parse_error(display, exc)
        if file_path.resolve() in wanted:
            suppressions = SuppressionIndex.from_lines(source.splitlines())
            report = (
                check_module(ctx, rules, suppressions)
                if ctx is not None
                else FileReport(path=display, findings=[error])
            )
            reports[display] = (report, suppressions)
        if index:
            summaries.append(
                summarize(ctx)
                if ctx is not None
                else ModuleSummary(module=module, path=display)
            )
    return reports, ProjectIndex(summaries, config) if index else None


def build_index(paths: list[Path], config: LintConfig) -> ProjectIndex:
    """The project index over the roots (plus any ``paths`` outside them)."""
    _reports, index = _one_pass(paths, config, [], index=True)
    return index


def lint_paths(
    paths: list[Path],
    config: Optional[LintConfig] = None,
    select: Optional[list[str]] = None,
) -> list[FileReport]:
    """Lint every file under ``paths``: one report per file, holding the
    findings of both kinds of rule (see the module docstring)."""
    config = config if config is not None else LintConfig()
    rules = instantiate(config, select=select)
    project_rules = instantiate(config, select=select, project=True)
    reports, index = _one_pass(paths, config, rules, index=bool(project_rules))
    if index is not None:
        collected = [f for rule in project_rules for f in rule.check(index)]
        for finding in sorted(
            collected, key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
        ):
            if finding.path not in reports:
                continue
            report, suppressions = reports[finding.path]
            if suppressions.suppresses(finding):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    return [report for report, _suppressions in reports.values()]
