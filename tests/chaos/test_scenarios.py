"""The chaos campaign: recovery invariants per fault class, plus replay.

One test pair per fault class in :data:`repro.chaos.SCENARIOS`:

* the scenario's recovery invariants all hold (no lost acknowledged
  writes, no duplicated idempotent writes, bounded recovery time, leases
  re-armed, the fault actually observed), and
* running the identical scenario twice produces bit-identical results —
  the replay-determinism contract of the deterministic clock plus seeded
  plan streams.

Scenario runs are cached per fault class so each (scenario, seed) pair
executes exactly twice for the whole module.
"""

import functools
import json

import pytest

from repro.chaos import (
    SCENARIOS,
    FaultKind,
    InvariantViolation,
)
from repro.chaos.plan import FaultPlan
from repro.chaos.scenarios import ChaosResult

KINDS = sorted(SCENARIOS, key=lambda kind: kind.value)


@functools.lru_cache(maxsize=None)
def run_twice(kind, seed=0):
    scenario_type = SCENARIOS[kind]
    return scenario_type(seed=seed).run(), scenario_type(seed=seed).run()


# -- invariants per fault class ----------------------------------------------


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_recovery_invariants_hold(kind):
    result, _again = run_twice(kind)
    assert result.check() is result      # raises naming violations if any
    assert result.ok
    assert result.kind is kind
    assert result.recovery_seconds >= 0.0
    assert result.invariants["bounded_recovery"]
    assert result.invariants["fault_observed"]
    assert result.message_overhead      # every class reports overhead


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_replay_with_same_seed_is_bit_identical(kind):
    first, again = run_twice(kind)
    assert first.fingerprint == again.fingerprint
    assert first.invariants == again.invariants
    assert first.recovery_seconds == again.recovery_seconds
    assert first.message_overhead == again.message_overhead


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.value)
def test_result_payload_is_json_safe(kind):
    result, _again = run_twice(kind)
    payload = result.to_payload()
    back = json.loads(json.dumps(payload))
    assert back["fault_class"] == kind.value
    assert back["ok"] is True
    assert back["fingerprint"] == result.fingerprint
    # The embedded plan replays the run: it round-trips losslessly.
    assert FaultPlan.from_dict(back["plan"]) == result.plan


def test_different_seeds_change_the_fingerprint():
    # The plan seed is part of the digest, so two campaigns can never be
    # confused for one another even if their event logs happen to agree.
    a, _ = run_twice(FaultKind.PARTITION, seed=0)
    b, _ = run_twice(FaultKind.PARTITION, seed=1)
    assert a.fingerprint != b.fingerprint


# -- class-specific teeth ----------------------------------------------------


def test_crash_restart_reacquires_leases_across_the_front_end():
    result, _ = run_twice(FaultKind.CRASH_RESTART)
    assert result.invariants["lease_rearmed"]
    assert result.details["front_end_restarts"] >= 1
    assert result.details["reacquired"] >= 1
    assert result.message_overhead["refused_connects"] > 0


def test_drop_delay_dup_wire_was_actually_lossy():
    result, _ = run_twice(FaultKind.DROP_DELAY_DUP)
    mangled = (
        result.message_overhead["requests_dropped"]
        + result.message_overhead["requests_duplicated"]
        + result.message_overhead["responses_dropped"]
        + result.message_overhead["responses_duplicated"]
        + result.message_overhead["responses_delayed"]
    )
    assert mangled > 0
    assert result.message_overhead["client_retries"] > 0
    assert result.invariants["no_lost_acked_writes"]
    assert result.invariants["no_duplicate_writes"]


def test_partition_delivers_exactly_once_with_retransmissions():
    result, _ = run_twice(FaultKind.PARTITION)
    assert result.invariants["exactly_once"]
    assert result.message_overhead["retransmissions"] > 0
    assert (result.message_overhead["forward_fault_drops"]
            + result.message_overhead["backward_fault_drops"]) > 0


def test_noisy_burst_preserves_register_integrity():
    result, _ = run_twice(FaultKind.NOISY_BURST)
    assert result.invariants["data_integrity"]
    assert result.invariants["noise_cleared"]
    assert result.message_overhead["corrupted_frames"] > 0


def test_lease_storm_spares_the_protected_set():
    result, _ = run_twice(FaultKind.LEASE_STORM)
    assert result.invariants["storm_expired_all"]
    assert result.invariants["protected_survived"]
    assert result.invariants["expiry_heap_drained"]
    assert result.invariants["post_storm_waiter_served"]
    assert result.message_overhead["expirations"] >= 200


def test_slow_consumer_drains_the_backlog():
    result, _ = run_twice(FaultKind.SLOW_CONSUMER)
    assert result.invariants["all_jobs_completed"]
    assert result.invariants["backlog_drained"]
    assert result.invariants["stall_cleared"]
    assert result.message_overhead["jobs_served"] >= 24


# -- campaign API ------------------------------------------------------------


def test_check_raises_naming_every_failed_invariant():
    result, _ = run_twice(FaultKind.LEASE_STORM)
    broken = ChaosResult(
        kind=result.kind,
        plan=result.plan,
        recovery_seconds=0.0,
        message_overhead={},
        invariants={"alpha": False, "beta": True, "gamma": False},
        details={},
        fingerprint=result.fingerprint,
    )
    assert not broken.ok
    with pytest.raises(InvariantViolation, match="alpha, gamma"):
        broken.check()
