"""repro.lint.project — whole-program analysis.

Where a per-file rule (:mod:`repro.lint.checker`) sees one module at a
time, this package builds a project-wide picture — a symbol table per
module (:mod:`symbols`), an import graph with cycle detection
(:mod:`graph`) and import/symbol resolution against the ``repro``
package (:mod:`resolver`) — and runs
:class:`~repro.lint.registry.ProjectRule` subclasses over it
(:mod:`rules`).  The paper keeps three independent models of one bus
protocol consistent; these rules are the commit-time enforcement of
that consistency.

Entry point: :func:`repro.lint.project.engine.lint_paths`, which parses
each file once for both kinds of rule.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.lint.project.resolver": ("ImportResolver", "module_name_for"),
    "repro.lint.project.symbols": ("ModuleSummary", "summarize"),
}

__all__ = [
    "ImportResolver",
    "ModuleSummary",
    "module_name_for",
    "summarize",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
