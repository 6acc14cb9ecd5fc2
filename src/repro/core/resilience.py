"""Client-side resilience: backoff, circuit breaker, idempotent retries.

Three composable pieces on top of :class:`~repro.core.client.SpaceClient`:

* :class:`BackoffPolicy` — exponential retry delays with optional jitter
  drawn from an *injected* RNG (chaos tests pass a plan stream, so retry
  timing is replayable);
* :class:`CircuitBreaker` — closed / open / half-open against an injected
  :class:`~repro.core.clock.Clock`; while open, operations fail fast with
  :class:`~repro.core.errors.CircuitOpenError` instead of hammering a
  dead server;
* :class:`ResilientSpaceClient` — reconnects through a connection
  factory, retries *idempotent* operations (writes carry an automatic
  idempotency key, so a retry after a lost acknowledgement cannot
  duplicate the tuple), and re-acquires leases after a server front-end
  restart.  ``take`` is deliberately never retried once the request may
  have reached the server: it either completes once or raises — retrying
  could consume two tuples.

All waiting goes through ``clock.sleep``; under a
:class:`~repro.core.clock.ManualClock` the whole recovery dance runs
deterministically and instantly.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.client import SpaceClient
from repro.core.clock import Clock
from repro.core.errors import (
    CircuitOpenError,
    ConnectionClosedError,
    RequestTimeoutError,
    SpaceError,
)
from repro.core.xmlcodec import XmlCodec


class BackoffPolicy:
    """Exponential backoff: ``base * factor**attempt`` capped at ``max_delay``.

    ``rng`` (a ``random.Random``) adds up to ``jitter`` fractional spread;
    pass a seeded stream for deterministic chaos runs, or ``None`` for
    none at all.
    """

    def __init__(
        self,
        base: float = 0.05,
        factor: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        rng=None,
    ):
        if base <= 0 or factor < 1.0 or max_delay <= 0:
            raise ValueError("backoff needs base > 0, factor >= 1, max_delay > 0")
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = rng

    def delay(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (counted from 0)."""
        delay = min(self.max_delay, self.base * self.factor ** attempt)
        if self._rng is not None and self.jitter:
            delay *= 1.0 + self.jitter * self._rng.random()
        return delay


class CircuitBreaker:
    """Fail-fast guard: trips open after consecutive failures.

    States: *closed* (normal), *open* (every call rejected until
    ``reset_timeout`` has passed), *half-open* (one probe allowed; its
    outcome closes or re-opens the circuit).
    """

    def __init__(
        self,
        clock: Clock,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._failures = 0
        self._opened_at: Optional[float] = None
        self.opens = 0
        self.rejections = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self.clock.now() - self._opened_at >= self.reset_timeout:
            return "half-open"
        return "open"

    def allow(self) -> None:
        """Permit the call or raise :class:`CircuitOpenError`."""
        if self.state == "open":
            self.rejections += 1
            remaining = self.reset_timeout - (self.clock.now() - self._opened_at)
            raise CircuitOpenError(
                f"circuit open for another {remaining:.3f}s"
            )

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self._failures += 1
        if self._opened_at is not None:
            # A failed half-open probe restarts the open window.
            self._opened_at = self.clock.now()
            self.opens += 1
        elif self._failures >= self.failure_threshold:
            self._opened_at = self.clock.now()
            self.opens += 1


class _WrittenEntry:
    """Book-keeping for one idempotent write (lease re-acquisition).

    ``expires_at`` is when the term last granted (by the write ack or
    the last renewal) runs out on the client's clock.
    """

    __slots__ = ("base_key", "op_key", "entry", "lease_duration",
                 "lease_id", "expires_at", "generation")

    def __init__(self, base_key: str, entry: Any, lease_duration):
        self.base_key = base_key
        self.op_key = base_key
        self.entry = entry
        self.lease_duration = lease_duration
        self.lease_id: Optional[int] = None
        self.expires_at = 0.0
        self.generation = 0


def _is_dead_lease(exc: SpaceError) -> bool:
    text = str(exc)
    return "unknown lease" in text or "expired lease" in text


class ResilientSpaceClient:
    """A :class:`SpaceClient` that survives crashes, drops and restarts.

    ``connect`` is a zero-argument factory returning a fresh connection
    (e.g. :meth:`repro.chaos.transport.ChaosHost.connect`); the client
    rebuilds its inner :class:`SpaceClient` through it whenever the
    current connection dies.
    """

    #: Operations retried after transport failures.  ``take`` /
    #: ``take_if_exists`` are absent by design: once the request may have
    #: reached the server, retrying could consume a second tuple.
    def __init__(
        self,
        connect: Callable[[], Any],
        codec: XmlCodec,
        clock: Clock,
        client_id: str = "client",
        backoff: Optional[BackoffPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        poll_interval: float = 0.005,
        request_timeout: Optional[float] = 0.5,
        max_attempts: int = 8,
    ):
        self._connect = connect
        self.codec = codec
        self.clock = clock
        self.client_id = client_id
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.breaker = breaker
        self.poll_interval = poll_interval
        self.request_timeout = request_timeout
        self.max_attempts = max_attempts
        self._client: Optional[SpaceClient] = None
        self._op_counter = 0
        #: This client's idempotent writes, by their current lease id.
        self._written: dict[int, _WrittenEntry] = {}
        # -- counters (chaos benches report these)
        self.connects = 0
        self.retries = 0
        self.duplicate_acks = 0
        self.reacquired = 0

    # -- connection management ----------------------------------------------

    def _ensure_client(self) -> SpaceClient:
        client = self._client
        if client is not None and not getattr(client.connection, "closed", False):
            return client
        connection = self._connect()
        self.connects += 1
        self._client = SpaceClient(
            connection,
            self.codec,
            poll_interval=self.poll_interval,
            clock=self.clock,
            request_timeout=self.request_timeout,
        )
        return self._client

    def _drop_client(self) -> None:
        client = self._client
        self._client = None
        if client is not None:
            try:
                client.connection.close()
            except OSError:
                pass

    # -- retry engine --------------------------------------------------------

    def _call(self, op: Callable[[SpaceClient], Any], idempotent: bool) -> Any:
        attempt = 0
        while True:
            if self.breaker is not None:
                try:
                    self.breaker.allow()
                except CircuitOpenError:
                    # Not a new failure — the breaker is just holding the
                    # line.  Idempotent callers back off and wait for the
                    # half-open probe window; others fail fast.
                    attempt += 1
                    if not idempotent or attempt >= self.max_attempts:
                        raise
                    self.retries += 1
                    self.clock.sleep(self.backoff.delay(attempt - 1))
                    continue
            try:
                client = self._ensure_client()
            except (ConnectionClosedError, OSError):
                # Connection establishment never reached the server with
                # a request, so retrying is safe for every operation.
                # Real-socket factories surface a refused/unreachable
                # server as OSError (ConnectionRefusedError) rather than
                # ConnectionClosedError — both mean "reconnect later".
                attempt = self._note_failure(attempt, retryable=True)
                continue
            try:
                result = op(client)
            except (ConnectionClosedError, RequestTimeoutError, OSError):
                # OSError: a TCP send/recv on a connection the server
                # dropped (BrokenPipeError, ECONNRESET) — same contract
                # as ConnectionClosedError, reached mid-operation.
                self._drop_client()
                attempt = self._note_failure(attempt, retryable=idempotent)
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return result

    def _note_failure(self, attempt: int, retryable: bool) -> int:
        """Record a failure; sleep and return the next attempt count, or
        re-raise the active exception when retries are exhausted."""
        if self.breaker is not None:
            self.breaker.record_failure()
        attempt += 1
        if not retryable or attempt >= self.max_attempts:
            raise
        self.retries += 1
        self.clock.sleep(self.backoff.delay(attempt - 1))
        return attempt

    # -- space operations -----------------------------------------------------

    def write(self, entry: Any, lease: Optional[float] = None) -> dict:
        """Idempotent write: retried safely under an automatic op key."""
        self._op_counter += 1
        record = _WrittenEntry(
            f"{self.client_id}:{self._op_counter}", entry, lease
        )
        ack = self._call(
            lambda c: c.write(entry, lease=lease, op_key=record.op_key),
            idempotent=True,
        )
        if ack["dup"]:
            self.duplicate_acks += 1
        self._bind(record, ack["lease_id"], ack["granted"])
        return ack

    def read(self, template: Any, timeout: Optional[float] = None):
        return self._call(lambda c: c.read(template, timeout), idempotent=True)

    def read_if_exists(self, template: Any):
        return self._call(lambda c: c.read_if_exists(template), idempotent=True)

    def take(self, template: Any, timeout: Optional[float] = None):
        """Never retried past the send: completes once or raises."""
        return self._call(lambda c: c.take(template, timeout), idempotent=False)

    def take_if_exists(self, template: Any):
        return self._call(lambda c: c.take_if_exists(template), idempotent=False)

    def ping(self) -> bool:
        return self._call(lambda c: c.ping(), idempotent=True)

    def cancel_lease(self, lease_id: int) -> None:
        self._call(lambda c: c.cancel_lease(lease_id), idempotent=True)

    # -- lease re-acquisition ---------------------------------------------------

    def renew_lease(self, lease_id: int, duration: float) -> float:
        """Renew; after a front-end restart, gracefully re-acquire.

        A restarted server mints lease ids under a new epoch, so the
        old id is unknown there.  If this client wrote the entry, it
        re-binds the grant by replaying the idempotent write (the space
        dedups and returns the original lease under a fresh id) and
        renews that.  An entry whose last granted term ran out during
        the outage is re-published as a new generation; one that died
        while its term still held was taken or cancelled by someone
        else, and the renewal fails rather than bring it back.
        """
        try:
            remaining = self._call(
                lambda c: c.renew_lease(lease_id, duration), idempotent=True
            )
        except (CircuitOpenError, ConnectionClosedError, RequestTimeoutError):
            raise
        except SpaceError as exc:
            record = self._written.get(lease_id)
            if record is None or not _is_dead_lease(exc):
                raise
            return self._reacquire(record, duration)
        record = self._written.get(lease_id)
        if record is not None:
            self._bind(record, lease_id, remaining)
        return remaining

    def _bind(
        self, record: _WrittenEntry, lease_id: int, term: Optional[float] = None
    ) -> None:
        """Key ``record`` by ``lease_id``; a ``term`` (seconds granted
        from now) moves its expiry."""
        self._written.pop(record.lease_id, None)
        record.lease_id = lease_id
        self._written[lease_id] = record
        if term is not None:
            record.expires_at = self.clock.now() + term

    def _reacquire(self, record: _WrittenEntry, duration: float) -> float:
        ack = self._call(
            lambda c: c.write(
                record.entry, lease=record.lease_duration, op_key=record.op_key
            ),
            idempotent=True,
        )
        if ack["dup"]:
            # Original grant re-bound under a fresh id; renew it if it
            # is still alive.
            self._bind(record, ack["lease_id"])
            try:
                renewed = self._call(
                    lambda c: c.renew_lease(record.lease_id, duration),
                    idempotent=True,
                )
                self._bind(record, record.lease_id, renewed)
                self.reacquired += 1
                return renewed
            except (CircuitOpenError, ConnectionClosedError, RequestTimeoutError):
                raise
            except SpaceError as exc:
                if not _is_dead_lease(exc):
                    raise
                if self.clock.now() < record.expires_at:
                    # Dead while its term still held: someone took or
                    # cancelled it, and re-publishing would bring back
                    # a consumed tuple.
                    raise
        else:
            # The op key aged out of retention: the write re-ran fresh.
            self._bind(record, ack["lease_id"], ack["granted"])
            self.reacquired += 1
            return ack["granted"]
        # The entry expired during the outage: re-publish a new generation.
        record.generation += 1
        record.op_key = f"{record.base_key}:g{record.generation}"
        ack = self._call(
            lambda c: c.write(
                record.entry, lease=record.lease_duration, op_key=record.op_key
            ),
            idempotent=True,
        )
        self._bind(record, ack["lease_id"], ack["granted"])
        self.reacquired += 1
        return ack["granted"]
