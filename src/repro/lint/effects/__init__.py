"""Interprocedural effect & determinism analysis (docs/determinism.md).

The effects layer turns the repo's determinism guarantees — byte-stable
golden traces, run-twice equality, replayable chaos plans — from
test-coverage luck into statically checked invariants:

* :mod:`repro.lint.effects.model`     — the effect lattice (eight kinds)
  and the curated seed tables that map stdlib calls to effects;
* :mod:`repro.lint.effects.extract`   — per-function effect seeds, call
  sites, scheduler registrations and ``# lint: effect=`` annotations,
  distilled during summarisation so they ride the incremental cache;
* :mod:`repro.lint.effects.callgraph` — the project-wide call graph:
  method resolution through class bases (MRO), aliased imports and
  function-locals, with a bounded class-hierarchy fallback for dynamic
  dispatch;
* :mod:`repro.lint.effects.infer`     — SCC-condensed fixpoint
  propagation of effects over the call graph, with cause links for
  call-chain witnesses, cached across runs keyed on a project digest;
* :mod:`repro.lint.effects.rules`     — the five project rules
  (``nondet-in-sim``, ``unstable-iter-order``, ``obs-hook-mutation``,
  ``effect-annotation-drift``, ``async-unsafe-call``).

The fixpoint also answers "does this call block?" for
``async-unsafe-call`` (it reads
:attr:`~repro.lint.effects.infer.EffectIndex.blocking_calls`).  The
warm-cache CI gate for the whole pass is
:mod:`repro.lint.project.timing`.
"""

from repro.lint.effects.model import (  # noqa: F401
    ALL_KINDS,
    BLOCKING,
    ENV_READ,
    GLOBAL_MUTATION,
    NONDET_KINDS,
    OS_ENTROPY,
    REAL_IO,
    THREAD_SPAWN,
    UNSTABLE_ITER,
    WALL_CLOCK,
)
