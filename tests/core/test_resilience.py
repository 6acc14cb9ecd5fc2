"""Backoff, circuit breaker, and the resilient client's retry semantics.

The scenario tests in ``tests/chaos`` exercise these pieces end to end;
here each one is pinned down in isolation on a :class:`ManualClock`:
backoff growth and replayable jitter, the breaker's three-state machine,
idempotent write retries that never duplicate a tuple, ``take`` never
being retried past the send, and graceful lease re-acquisition across a
front-end restart (including the expired-entry republish path).
"""

import pytest

from repro.chaos import FaultKind, FaultPlan, single_fault_plan
from repro.chaos.transport import ChaosHost
from repro.core.clock import ManualClock
from repro.core.errors import CircuitOpenError, RequestTimeoutError, SpaceError
from repro.core.resilience import (
    BackoffPolicy,
    CircuitBreaker,
    ResilientSpaceClient,
)
from repro.core.server import NullTimers, SpaceServer
from repro.core.space import TupleSpace
from repro.core.tuples import LindaTuple, TupleTemplate
from repro.core.xmlcodec import XmlCodec


# -- BackoffPolicy -----------------------------------------------------------


def test_backoff_grows_exponentially_and_caps():
    policy = BackoffPolicy(base=0.1, factor=2.0, max_delay=0.5, jitter=0.0)
    assert policy.delay(0) == pytest.approx(0.1)
    assert policy.delay(1) == pytest.approx(0.2)
    assert policy.delay(2) == pytest.approx(0.4)
    assert policy.delay(3) == pytest.approx(0.5)   # capped
    assert policy.delay(10) == pytest.approx(0.5)


def test_backoff_jitter_is_replayable_from_a_plan_stream():
    def delays():
        policy = BackoffPolicy(
            base=0.1, factor=2.0, max_delay=1.0, jitter=0.5,
            rng=FaultPlan(seed=11).stream("backoff"),
        )
        return [policy.delay(n) for n in range(6)]

    first = delays()
    assert first == delays()
    # Jitter only ever stretches the base delay, never shrinks it.
    for attempt, delay in enumerate(first):
        base = min(1.0, 0.1 * 2.0 ** attempt)
        assert base <= delay <= base * 1.5


def test_backoff_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        BackoffPolicy(base=0.0)
    with pytest.raises(ValueError):
        BackoffPolicy(factor=0.5)
    with pytest.raises(ValueError):
        BackoffPolicy(max_delay=0.0)


# -- CircuitBreaker ----------------------------------------------------------


def test_breaker_trips_after_consecutive_failures():
    clock = ManualClock()
    breaker = CircuitBreaker(clock, failure_threshold=3, reset_timeout=1.0)
    assert breaker.state == "closed"
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"       # below threshold
    breaker.allow()                        # still permitted
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.opens == 1
    with pytest.raises(CircuitOpenError):
        breaker.allow()
    assert breaker.rejections == 1


def test_breaker_success_resets_the_failure_streak():
    clock = ManualClock()
    breaker = CircuitBreaker(clock, failure_threshold=2, reset_timeout=1.0)
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == "closed"       # streak broken in between


def test_breaker_half_open_probe_closes_or_reopens():
    clock = ManualClock()
    breaker = CircuitBreaker(clock, failure_threshold=1, reset_timeout=1.0)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.advance(1.0)
    assert breaker.state == "half-open"
    breaker.allow()                        # the probe is permitted

    # Failed probe: the open window restarts.
    breaker.record_failure()
    assert breaker.state == "open"
    assert breaker.opens == 2
    clock.advance(1.0)
    assert breaker.state == "half-open"

    # Successful probe: back to closed.
    breaker.record_success()
    assert breaker.state == "closed"
    breaker.allow()


def test_breaker_rejects_bad_threshold():
    with pytest.raises(ValueError):
        CircuitBreaker(ManualClock(), failure_threshold=0)


# -- ResilientSpaceClient ----------------------------------------------------


def _stack(plan, clock=None, server_factory=None, **client_kw):
    clock = clock if clock is not None else ManualClock()
    codec = XmlCodec()
    space = TupleSpace(clock=clock, name="resilience-space")
    if server_factory is None:
        server = SpaceServer(space, codec, timers=NullTimers())
        host = ChaosHost(server, plan, clock, scope="server")
    else:
        host = ChaosHost(None, plan, clock, scope="server",
                         server_factory=server_factory)
    client_kw.setdefault("backoff", BackoffPolicy(
        base=0.02, factor=2.0, max_delay=0.2, jitter=0.0,
    ))
    client_kw.setdefault("request_timeout", 0.1)
    client = ResilientSpaceClient(host.connect, codec, clock, **client_kw)
    return space, host, client, clock


def test_idempotent_write_retries_without_duplicating():
    # Every response is dropped while the window is active: the client
    # must retry under its op key until the window ends, and the space
    # must hold exactly one copy.
    plan = single_fault_plan(
        FaultKind.DROP_DELAY_DUP, at=0.0, duration=0.35,
        scope="server", seed=0, resp_drop_p=1.0,
    )
    space, host, client, _clock = _stack(plan)
    ack = client.write(LindaTuple("item", 1))
    assert ack["dup"]                      # the landed attempt was a replay
    assert client.duplicate_acks == 1
    assert client.retries > 0
    assert host.responses_dropped > 0
    assert len(space) == 1
    assert space.duplicate_writes >= 1


def test_take_is_never_retried_past_the_send():
    plan = single_fault_plan(
        FaultKind.DROP_DELAY_DUP, at=0.0, duration=1000.0,
        scope="server", seed=0, resp_drop_p=1.0,
    )
    space, _host, client, clock = _stack(plan)
    space.write(LindaTuple("item", 1))
    retries_before = client.retries
    with pytest.raises(RequestTimeoutError):
        client.take_if_exists(TupleTemplate("item", int))
    # One send, one timeout, no blind retry: the request reached the
    # server (which consumed the tuple) and retrying could eat a second.
    assert client.retries == retries_before
    clock.advance(2000.0)
    assert client.read_if_exists(TupleTemplate("item", int)) is None


def test_connect_refused_during_outage_is_retried_for_any_op():
    plan = single_fault_plan(
        FaultKind.CRASH_RESTART, at=0.0, duration=0.2,
        scope="server", seed=0,
    )
    space, host, client, clock = _stack(plan, max_attempts=20)
    space.write(LindaTuple("item", 9))
    assert clock.now() < 0.2               # the host starts down
    # Connection establishment never carried a request, so even the
    # non-idempotent take is safely retried until the host is back.
    got = client.take_if_exists(TupleTemplate("item", int))
    assert got == LindaTuple("item", 9)
    assert host.refused_connects > 0
    assert clock.now() >= 0.2              # backoff slept through the outage


def test_open_breaker_fails_non_idempotent_calls_fast():
    plan = single_fault_plan(
        FaultKind.CRASH_RESTART, at=0.0, duration=1000.0,
        scope="server", seed=0,
    )
    clock = ManualClock()
    breaker = CircuitBreaker(clock, failure_threshold=2, reset_timeout=50.0)
    _space, _host, client, _ = _stack(
        plan, clock=clock, breaker=breaker, max_attempts=4,
    )
    with pytest.raises(CircuitOpenError):
        client.ping()                      # exhausts attempts, trips open
    assert breaker.opens >= 1
    rejections = breaker.rejections
    with pytest.raises(CircuitOpenError):
        client.take_if_exists(TupleTemplate("item", int))
    assert breaker.rejections == rejections + 1


def test_idempotent_call_waits_out_an_open_breaker():
    plan = single_fault_plan(
        FaultKind.CRASH_RESTART, at=0.0, duration=0.3,
        scope="server", seed=0,
    )
    clock = ManualClock()
    breaker = CircuitBreaker(clock, failure_threshold=2, reset_timeout=0.1)
    _space, _host, client, _ = _stack(
        plan, clock=clock, breaker=breaker, max_attempts=64,
        backoff=BackoffPolicy(base=0.05, factor=1.5, max_delay=0.2,
                              jitter=0.0),
    )
    assert client.ping() is True           # backs off through open windows
    assert breaker.opens >= 1
    assert breaker.state == "closed"


def test_lease_reacquired_across_front_end_restart():
    plan = single_fault_plan(
        FaultKind.CRASH_RESTART, at=1.0, duration=0.5,
        scope="server", seed=0,
    )
    clock = ManualClock()
    codec = XmlCodec()
    space = TupleSpace(clock=clock, name="resilience-space")
    incarnation = {"n": -1}

    def server_factory():
        incarnation["n"] += 1
        return SpaceServer(space, codec, timers=NullTimers(),
                           lease_epoch=incarnation["n"])

    host = ChaosHost(None, plan, clock, scope="server",
                     server_factory=server_factory)
    client = ResilientSpaceClient(
        host.connect, codec, clock,
        backoff=BackoffPolicy(base=0.05, factor=2.0, max_delay=0.3,
                              jitter=0.0),
        request_timeout=0.2, max_attempts=16,
    )
    ack = client.write(LindaTuple("anchor", 0), lease=60.0)
    clock.set(1.2)                         # inside the crash window
    # The ping observes the crash (connection dies, reconnects refused)
    # and backs off until the restarted front end accepts again.
    assert client.ping() is True
    assert clock.now() >= 1.5
    granted = client.renew_lease(ack["lease_id"], 60.0)
    assert granted == pytest.approx(60.0)
    assert client.reacquired == 1
    assert host.front_end_restarts == 1
    # The original grant was re-bound, not re-written: one tuple.
    assert len(space) == 1


def test_expired_lease_is_republished_as_a_new_generation():
    plan = single_fault_plan(
        FaultKind.CRASH_RESTART, at=0.5, duration=1.0,
        scope="server", seed=0,
    )
    clock = ManualClock()
    codec = XmlCodec()
    space = TupleSpace(clock=clock, name="resilience-space")
    incarnation = {"n": -1}

    def server_factory():
        incarnation["n"] += 1
        return SpaceServer(space, codec, timers=NullTimers(),
                           lease_epoch=incarnation["n"])

    host = ChaosHost(None, plan, clock, scope="server",
                     server_factory=server_factory)
    client = ResilientSpaceClient(
        host.connect, codec, clock,
        backoff=BackoffPolicy(base=0.05, factor=2.0, max_delay=0.3,
                              jitter=0.0),
        request_timeout=0.2, max_attempts=16,
    )
    # Short lease: the entry dies during the outage.
    ack = client.write(LindaTuple("anchor", 0), lease=0.2)
    clock.set(2.0)
    space.sweep_expired()
    assert len(space) == 0
    granted = client.renew_lease(ack["lease_id"], 60.0)
    assert granted > 0
    assert client.reacquired == 1
    # Republished: the entry is back under a fresh generation key.
    assert space.read_if_exists(TupleTemplate("anchor", int)) is not None


@pytest.mark.parametrize("lease", [60.0, None])
def test_renewing_a_taken_entry_does_not_bring_it_back(lease):
    # No fault, no restart: someone else took the entry while its term
    # (60 s, or FOREVER) still held.  The renewal must fail instead of
    # re-publishing a tuple that was consumed.
    space, _host, client, _clock = _stack(FaultPlan(seed=0))
    ack = client.write(LindaTuple("anchor", 0), lease=lease)
    assert space.take_if_exists(TupleTemplate("anchor", int)) == LindaTuple("anchor", 0)
    with pytest.raises(SpaceError):
        client.renew_lease(ack["lease_id"], 60.0)
    assert len(space) == 0
    assert client.reacquired == 0
