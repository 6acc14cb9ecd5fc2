"""Deterministic fault injection and resilience scenarios (``repro.chaos``).

Chaos engineering for the tuplespace testbed, built on the same two
determinism pillars as the rest of the repo — the DES clock and seeded
named random streams:

* :mod:`repro.chaos.plan` — :class:`FaultPlan` / :class:`FaultSpec`:
  schedulable fault descriptions (trigger time, duration, scope, seed)
  that serialise to JSON and fingerprint stably, so every chaos run is
  replayable bit-for-bit;
* :mod:`repro.chaos.injectors` — bind specs to DES-world targets
  (links, the tpwire bus and slaves) and flip the fault on/off as plain
  scheduled events;
* :mod:`repro.chaos.transport` — clock-window chaos for the synchronous
  client/server path (crash-restart of the front end; message drop /
  delay / duplication on the wire);
* :mod:`repro.chaos.scenarios` — one runnable scenario per fault class,
  each producing a :class:`~repro.chaos.scenarios.ChaosResult` with
  recovery time, message overhead, invariant verdicts and a replay
  fingerprint.

The client-side resilience patterns these scenarios exercise (backoff,
circuit breaker, idempotent writes, lease re-acquisition) live in
:mod:`repro.core.resilience`.
"""

from repro import lazy_exports

_EXPORTS = {
    "repro.chaos.errors": (
        "ChaosError",
        "FaultPlanError",
        "InjectorError",
        "InvariantViolation",
    ),
    "repro.chaos.injectors": (
        "CallbackInjector",
        "Injector",
        "SlaveCrashInjector",
        "arm_plan",
    ),
    "repro.chaos.plan": (
        "FaultKind",
        "FaultPlan",
        "FaultSpec",
        "fault",
        "single_fault_plan",
    ),
    "repro.chaos.scenarios": (
        "SCENARIOS",
        "ChaosScenario",
        "CrashRestartScenario",
        "DropDelayDupScenario",
        "LeaseStormScenario",
        "NoisyBurstScenario",
        "PartitionScenario",
        "SlowConsumerScenario",
    ),
    "repro.chaos.transport": ("ChaosConnection", "ChaosHost"),
}

__all__ = [
    "ChaosError",
    "FaultPlanError",
    "InjectorError",
    "InvariantViolation",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "fault",
    "single_fault_plan",
    "Injector",
    "SlaveCrashInjector",
    "CallbackInjector",
    "arm_plan",
    "ChaosHost",
    "ChaosConnection",
    "ChaosScenario",
    "CrashRestartScenario",
    "DropDelayDupScenario",
    "PartitionScenario",
    "NoisyBurstScenario",
    "LeaseStormScenario",
    "SlowConsumerScenario",
    "SCENARIOS",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
