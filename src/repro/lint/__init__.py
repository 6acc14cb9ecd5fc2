"""repro.lint — AST-based determinism & protocol-invariant checker.

A self-contained static-analysis framework (stdlib ``ast`` only) whose
rules encode the invariants this reproduction's validation rests on: the
DES core must stay bit-reproducible (no wall clock, no global RNG, no OS
concurrency in the pure layers) and the TpWIRE frame/CRC layer must stay
within protocol bounds.  See ``docs/lint.md`` for the rule catalogue.

Usage::

    python -m repro.lint src tests          # CLI (exit 1 on findings)

    from repro.lint import lint_paths, load_config
    reports = lint_paths([Path("src")], config=load_config())

Rules are pluggable: subclass :class:`~repro.lint.registry.Rule` and
decorate it with :func:`~repro.lint.registry.register`.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.lint.checker": ("lint_file", "lint_source"),
    "repro.lint.config": ("LintConfig", "load_config"),
    "repro.lint.errors": ("ConfigError", "LintError", "RegistryError"),
    "repro.lint.findings": ("FileReport", "Finding", "Severity"),
    "repro.lint.project.engine": ("lint_paths",),
    "repro.lint.registry": ("Rule", "all_rule_classes", "instantiate", "register"),
}

__all__ = [
    "ConfigError",
    "FileReport",
    "Finding",
    "LintConfig",
    "LintError",
    "RegistryError",
    "Rule",
    "Severity",
    "all_rule_classes",
    "instantiate",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_config",
    "register",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
