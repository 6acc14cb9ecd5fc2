"""Interprocedural effect & determinism analysis (docs/determinism.md).

The effects layer turns the repo's determinism guarantees — byte-stable
golden traces, run-twice equality, replayable chaos plans — from
test-coverage luck into statically checked invariants:

* :mod:`repro.lint.effects.model`     — the effect lattice (eight kinds)
  and the curated seed tables that map stdlib calls to effects;
* :mod:`repro.lint.effects.extract`   — per-function effect seeds, call
  sites, scheduler registrations and ``# lint: effect=`` annotations,
  distilled during summarisation from the file's one parse;
* :mod:`repro.lint.effects.callgraph` — the project-wide call graph:
  method resolution through class bases (MRO), aliased imports and
  function-locals, with a bounded class-hierarchy fallback for dynamic
  dispatch;
* :mod:`repro.lint.effects.infer`     — SCC-condensed fixpoint
  propagation of effects over the call graph, with cause links for
  call-chain witnesses;
* :mod:`repro.lint.effects.rules`     — the five project rules
  (``nondet-in-sim``, ``unstable-iter-order``, ``obs-hook-mutation``,
  ``effect-annotation-drift``, ``async-unsafe-call``).

The fixpoint also answers "does this call block?" for
``async-unsafe-call`` (it reads
:attr:`~repro.lint.effects.infer.EffectIndex.blocking_calls`).
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.lint.effects.model": (
        "BLOCKING",
        "ENV_READ",
        "GLOBAL_MUTATION",
        "NONDET_KINDS",
        "THREAD_SPAWN",
        "UNSTABLE_ITER",
    ),
}

__all__ = [
    "BLOCKING",
    "ENV_READ",
    "GLOBAL_MUTATION",
    "NONDET_KINDS",
    "THREAD_SPAWN",
    "UNSTABLE_ITER",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
