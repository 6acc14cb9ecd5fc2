"""Rule base class and the pluggable rule registry.

A rule is a class with a unique kebab-case ``id``; registering it makes
it discoverable by the checker, the CLI (``--list-rules``) and the
config layer.  Third parties (benchmarks, future subsystems) can add
rules by defining a subclass and calling :func:`register` — nothing in
the checker enumerates rules statically.
"""

from __future__ import annotations

import ast
import difflib
from typing import Iterable, Iterator, Optional, Type

from repro.lint.context import ModuleContext
from repro.lint.errors import RegistryError
from repro.lint.findings import Finding, Severity


class Rule:
    """Base class for one lint rule.

    Class attributes
    ----------------
    id:
        Unique kebab-case identifier (used in ``# lint: disable=``,
        ``--select``, the rule's options table and finding output).
    summary:
        One-line description shown by ``--list-rules``.
    default_severity:
        ERROR findings gate the run; WARNING findings are advisory.
    default_scope:
        Dotted module prefixes the rule applies to, or ``None`` for
        every module.
    """

    id: str = ""
    summary: str = ""
    default_severity: Severity = Severity.ERROR
    default_scope: Optional[tuple[str, ...]] = ("repro",)

    def __init__(self, config):
        self.config = config
        self.options: dict = config.rule_options.get(self.id, {})
        self.severity: Severity = self.default_severity
        self.scope: Optional[tuple[str, ...]] = self.default_scope

    # -- scoping -----------------------------------------------------------

    def applies_to(self, ctx: ModuleContext) -> bool:
        if self.scope is None:
            return True
        return ctx.in_package(*self.scope)

    # -- checking ----------------------------------------------------------

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module; must not mutate the tree."""
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """Base class for one whole-program rule.

    Same registry, configuration, severity and suppression machinery as
    the per-file :class:`Rule`, but :meth:`check` receives the
    :class:`~repro.lint.project.engine.ProjectIndex` (every module's
    symbol summary plus the import graph) instead of one module, so a
    rule can follow a constant across files or reject a layering edge.
    ``scope`` restricts which modules a finding may be *reported in*
    (rules filter with :meth:`in_scope`).
    """

    def check(self, index) -> Iterator[Finding]:  # type: ignore[override]
        """Yield findings over the whole project; must not mutate it."""
        raise NotImplementedError

    def in_scope(self, module: str) -> bool:
        if self.scope is None:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def finding_at(
        self,
        path: str,
        line: int,
        message: str,
        col: int = 1,
        *,
        severity: Optional[Severity] = None,
        code_flow: Iterable = (),
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=path,
            line=line,
            col=col,
            message=message,
            severity=severity if severity is not None else self.severity,
            code_flow=tuple(tuple(step) for step in code_flow),
        )


#: All registered rule classes (per-file and project), keyed by rule id.
_REGISTRY: dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not rule_cls.id:
        raise RegistryError(f"rule {rule_cls.__name__} has no id")
    existing = _REGISTRY.get(rule_cls.id)
    if existing is not None and existing is not rule_cls:
        raise RegistryError(
            f"duplicate rule id {rule_cls.id!r}: "
            f"{existing.__name__} vs {rule_cls.__name__}"
        )
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rule_classes() -> dict[str, Type[Rule]]:
    """Registered rules (id -> class), loading the built-in set."""
    # Importing the rules packages registers every built-in rule.
    import repro.lint.rules  # noqa: F401
    import repro.lint.project.rules  # noqa: F401
    import repro.lint.effects.rules  # noqa: F401

    return dict(_REGISTRY)


def is_project_rule(rule_cls: Type[Rule]) -> bool:
    return issubclass(rule_cls, ProjectRule)


def validate_rule_ids(rule_ids: Iterable[str]) -> None:
    """Raise :class:`RegistryError` (with a "did you mean" hint) for ids
    that name no registered rule of either kind."""
    classes = all_rule_classes()
    unknown = sorted(set(r for r in rule_ids if r not in classes))
    if not unknown:
        return
    hints = []
    for rule_id in unknown:
        close = difflib.get_close_matches(rule_id, classes, n=1, cutoff=0.4)
        hints.append(
            f"{rule_id!r} (did you mean {close[0]!r}?)" if close else repr(rule_id)
        )
    raise RegistryError(f"unknown rule id(s): {', '.join(hints)}")


def instantiate(
    config, select: Optional[Iterable[str]] = None, *, project: bool = False
) -> list[Rule]:
    """Build rule instances of one kind: ``select`` (``--select``), or
    every registered rule when it is ``None``.

    Ids are validated against the union of both kinds, so selecting a
    project rule while instantiating the per-file pass is not an error —
    it just contributes nothing to this pass.
    """
    classes = all_rule_classes()
    wanted = list(select) if select is not None else sorted(classes)
    validate_rule_ids(wanted)
    return [
        classes[rule_id](config)
        for rule_id in wanted
        if is_project_rule(classes[rule_id]) == project
    ]
