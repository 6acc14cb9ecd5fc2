"""The whole-program pass: index construction and project-rule dispatch.

:func:`run_project` is the one entry point.  It discovers every file in
the configured project roots (CLI paths only *filter reporting*, so a
rule like ``dead-public-api`` always sees the tests that reference an
export, even when only ``src`` was asked for), builds one
:class:`ProjectIndex` — per-module symbol summaries, the import graph,
an import/symbol resolver — and runs every registered
:class:`~repro.lint.registry.ProjectRule` over it.

Summaries come from a two-tier incremental cache
(:mod:`repro.lint.project.cache`): unchanged files are never re-parsed,
and resolved constant environments are reused unless a transitive
dependency changed.  Cache misses fan out across a process pool when
there are enough of them to amortise the pool start-up cost.
"""

from __future__ import annotations

import builtins as _builtins
import concurrent.futures
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from repro.lint.checker import iter_python_files
from repro.lint.config import LintConfig
from repro.lint.findings import FileReport, Finding
from repro.lint.project.cache import ProjectCache, content_hash
from repro.lint.project.graph import ModuleGraph
from repro.lint.project.resolver import ImportResolver, module_name_for
from repro.lint.project.symbols import ModuleSummary, summarize_source
from repro.lint.registry import instantiate

#: Default directories indexed relative to the config root.
DEFAULT_ROOTS = ("src", "tests", "benchmarks", "examples")

#: Default cache file name, relative to the config root.
DEFAULT_CACHE = ".repro-lint-cache.json"

#: Below this many cache-miss files, parsing in-process beats paying the
#: process-pool start-up cost.
PARALLEL_THRESHOLD = 12

#: Exception names every Python build defines as subclasses of
#: ``BaseException`` — the terminals of base-class resolution.
BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(_builtins)
    if isinstance(getattr(_builtins, name), type)
    and issubclass(getattr(_builtins, name), BaseException)
)


@dataclass
class ProjectStats:
    """What the engine did — the observable the cache tests assert on."""

    files: int = 0
    #: Indexed files under the requested paths (findings are reported
    #: only for these).
    selected: int = 0
    #: Files parsed this run (cache misses).
    parsed: int = 0
    #: Files served from the summary cache.
    cache_hits: int = 0
    #: Constant environments recomputed / reused from cache.
    envs_computed: int = 0
    envs_reused: int = 0
    #: Effect call graphs built from scratch / served from the cache's
    #: project-digest tier (the lint timing gate asserts warm runs never
    #: build).
    effects_built: int = 0
    effects_reused: int = 0
    #: True when cache misses were parsed on a process pool.
    parallel: bool = False


def _summarize_worker(task: tuple[str, str, str]) -> dict:
    """Top-level so it pickles into :class:`ProcessPoolExecutor` workers."""
    source, display, module = task
    return summarize_source(source, path=display, module=module).to_dict()


class ProjectIndex:
    """Everything a :class:`~repro.lint.registry.ProjectRule` may query.

    Read-only by convention: rules iterate :attr:`summaries`, walk
    :attr:`graph` / :attr:`all_edges` and call the resolution helpers;
    they never mutate the index.
    """

    def __init__(
        self,
        summaries: dict[str, ModuleSummary],
        by_path: dict[str, ModuleSummary],
        config: LintConfig,
        *,
        cache: Optional[ProjectCache] = None,
        module_sha: Optional[dict[str, str]] = None,
        stats: Optional[ProjectStats] = None,
    ):
        #: module name -> summary.
        self.summaries = summaries
        #: display path -> summary (authoritative for suppressions).
        self.by_path = by_path
        self.config = config
        self.cache = cache
        self.module_sha = module_sha or {}
        self.stats = stats or ProjectStats()
        self.resolver = ImportResolver(set(summaries))

        #: Every project-internal import edge:
        #: ``(importer, imported, line, top_level)``.  Layer rules use
        #: all of them; cycle detection uses only the top-level subset
        #: (a function-local import is a legitimate lazy cycle-breaker).
        self.all_edges: list[tuple[str, str, int, bool]] = []
        top_edges: dict[str, set[str]] = {}
        for module, summary in summaries.items():
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
        """Resolved numeric constants of one module (name -> value).

        Served from the cache when the module's *closure digest* — its
        own content hash plus every transitive dependency's — matches;
        editing a dependency therefore recomputes exactly the dependent
        environments.
        """
        if module in self._envs:
            return self._envs[module]
        digest = None
        if self.cache is not None and module in self.module_sha:
            digest = ProjectCache.closure_digest(module, self.graph, self.module_sha)
            cached = self.cache.env_for(module, digest)
            if cached is not None:
                self._envs[module] = cached
                self.stats.envs_reused += 1
                return cached
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
        if self.cache is not None and digest is not None:
            self.cache.store_env(module, digest, env)
            self.stats.envs_computed += 1
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


# -- discovery and the run -------------------------------------------------


def project_roots(config: LintConfig) -> list[Path]:
    """Directories the index always covers, from ``[tool.repro-lint.project]``."""
    options = config.rule_options.get("project", {})
    declared = options.get("roots", list(DEFAULT_ROOTS))
    base = config.root if config.root is not None else Path.cwd()
    return [base / entry for entry in declared if (base / entry).exists()]


def cache_path(config: LintConfig) -> Path:
    options = config.rule_options.get("project", {})
    base = config.root if config.root is not None else Path.cwd()
    return base / options.get("cache", DEFAULT_CACHE)


def _display_path(path: Path, config: LintConfig) -> str:
    if config.root is not None:
        try:
            return path.resolve().relative_to(config.root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def build_index(
    paths: list[Path],
    config: LintConfig,
    *,
    use_cache: bool = True,
    jobs: Optional[int] = None,
    stats: Optional[ProjectStats] = None,
) -> ProjectIndex:
    """Index the project roots (plus any ``paths`` outside them)."""
    stats = stats if stats is not None else ProjectStats()
    roots = project_roots(config)
    scan = list(roots) if roots else list(paths)
    for path in paths:
        resolved = path.resolve()
        if not any(
            resolved == root.resolve() or _is_under(resolved, root.resolve())
            for root in scan
        ):
            scan.append(path)

    cache = (
        ProjectCache.load(cache_path(config)) if use_cache else ProjectCache(None)
    )

    files: list[tuple[Path, str, str, str]] = []  # (path, display, module, sha)
    seen_display: set[str] = set()
    for file_path in iter_python_files(scan, config):
        display = _display_path(file_path, config)
        if display in seen_display:
            continue
        seen_display.add(display)
        try:
            data = file_path.read_bytes()
        except OSError:
            continue
        files.append(
            (file_path, display, module_name_for(Path(display)), content_hash(data))
        )
    stats.files = len(files)

    summaries: dict[str, ModuleSummary] = {}
    by_path: dict[str, ModuleSummary] = {}
    module_sha: dict[str, str] = {}
    misses: list[tuple[Path, str, str, str]] = []
    for file_path, display, module, sha in files:
        cached = cache.summary_for(display, sha)
        if cached is not None:
            summary = ModuleSummary.from_dict(cached)
            stats.cache_hits += 1
            _index_summary(summary, display, module, sha, summaries, by_path, module_sha)
        else:
            misses.append((file_path, display, module, sha))

    parsed = _parse_files(misses, jobs=jobs, stats=stats)
    for (file_path, display, module, sha), summary in zip(misses, parsed):
        cache.store_summary(display, sha, summary.to_dict())
        _index_summary(summary, display, module, sha, summaries, by_path, module_sha)
    stats.parsed = len(misses)

    cache.prune(set(by_path), set(summaries))
    index = ProjectIndex(
        summaries,
        by_path,
        config,
        cache=cache if use_cache else None,
        module_sha=module_sha,
        stats=stats,
    )
    return index


def _index_summary(summary, display, module, sha, summaries, by_path, module_sha):
    by_path[display] = summary
    # First file wins on a (rare) module-name collision; file order is
    # deterministic so the choice is too.
    if module not in summaries:
        summaries[module] = summary
        module_sha[module] = sha


def _is_under(path: Path, root: Path) -> bool:
    try:
        path.relative_to(root)
        return True
    except ValueError:
        return False


def _parse_files(
    misses: list[tuple[Path, str, str, str]],
    *,
    jobs: Optional[int],
    stats: ProjectStats,
) -> list[ModuleSummary]:
    tasks: list[tuple[str, str, str]] = []
    for file_path, display, module, _sha in misses:
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            source = ""
        tasks.append((source, display, module))

    want_parallel = (jobs is None or jobs > 1) and len(tasks) >= PARALLEL_THRESHOLD
    if want_parallel:
        try:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                dicts = list(pool.map(_summarize_worker, tasks, chunksize=8))
            stats.parallel = True
            return [ModuleSummary.from_dict(d) for d in dicts]
        except (OSError, PermissionError, concurrent.futures.process.BrokenProcessPool):
            # Sandboxes may forbid the semaphores multiprocessing needs;
            # correctness never depends on the pool.
            pass
    return [
        summarize_source(source, path=display, module=module)
        for source, display, module in tasks
    ]


def run_project(
    paths: list[Path],
    config: Optional[LintConfig] = None,
    select: Optional[list[str]] = None,
    *,
    use_cache: bool = True,
    jobs: Optional[int] = None,
) -> tuple[list[FileReport], ProjectStats]:
    """Run every enabled project rule; findings are filtered to ``paths``.

    Returns one :class:`FileReport` per file with findings (surviving or
    suppressed) plus the run's :class:`ProjectStats`.
    """
    config = config if config is not None else LintConfig()
    stats = ProjectStats()
    rules = instantiate(config, select=select, project=True)
    if not rules:
        return [], stats

    index = build_index(
        paths, config, use_cache=use_cache, jobs=jobs, stats=stats
    )

    # Which display paths the caller asked to hear about.
    wanted = [p.resolve() for p in paths]
    selected = {
        display
        for display, summary in index.by_path.items()
        if _selected(display, config, wanted)
    }
    stats.selected = len(selected)

    collected: list[Finding] = []
    for rule in rules:
        collected.extend(rule.check(index))

    per_file: dict[str, FileReport] = {}
    for finding in sorted(
        collected, key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
    ):
        if finding.path not in selected:
            continue
        report = per_file.setdefault(finding.path, FileReport(path=finding.path))
        summary = index.by_path.get(finding.path)
        suppressions = (
            summary.suppression_index() if summary is not None else None
        )
        if suppressions is not None and suppressions.suppresses(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    if use_cache and index.cache is not None:
        index.cache.save()
    return [per_file[path] for path in sorted(per_file)], stats


def _selected(display: str, config: LintConfig, wanted: list[Path]) -> bool:
    base = config.root if config.root is not None else Path.cwd()
    absolute = (base / display).resolve()
    return any(
        absolute == want or _is_under(absolute, want) for want in wanted
    )
