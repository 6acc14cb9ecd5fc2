"""Transport-layer chaos for the synchronous client path.

The socket-flavoured stack (:class:`repro.core.client.SpaceClient` over a
connection) lives outside the DES — its time source is the client's
injected :class:`~repro.core.clock.Clock`.  Chaos here is therefore
clock-window based: a :class:`ChaosHost` owns a real
:class:`~repro.core.server.SpaceServer` plus the fault plan, and every
:class:`ChaosConnection` it hands out consults the host's clock on each
``send_bytes``/``recv_bytes``:

* during a ``CRASH_RESTART`` window the host is *down*: live connections
  observe an abrupt close (``recv`` returns empty with ``closed`` set,
  ``send`` raises), new connects are refused.  The space engine object
  survives — the crash is fail-stop of the front-end, so reconnecting
  after the window sees all previously acknowledged state (durability of
  the engine itself is ROADMAP item 5);
* during a ``DROP_DELAY_DUP`` window each request/response independently
  gets dropped, duplicated, or (responses) held until a later clock time,
  drawn from the plan stream ``chaos.<scope>.wire`` — so a run is
  replayable bit-for-bit given the same plan and clock schedule.

Under a :class:`~repro.core.clock.ManualClock` the client's own polling
``sleep`` advances time, which is what moves the run through fault
windows deterministically.
"""

from __future__ import annotations

from typing import Optional

from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.core.errors import ConnectionClosedError
from repro.core.transports import LocalConnection


class ChaosHost:
    """A space-server front end whose availability follows a fault plan."""

    def __init__(
        self,
        server,
        plan: FaultPlan,
        clock,
        scope: str = "server",
        server_factory=None,
    ):
        """``server_factory`` (optional, zero-argument, returns a fresh
        :class:`~repro.core.server.SpaceServer` over the *same* space)
        models a full front-end restart: after each crash window the next
        connect builds a new server, which has forgotten its lease-id
        table — the case lease re-acquisition exists for.  Without it the
        same server object survives the crash (process kept its memory).
        """
        self.server = server if server is not None else server_factory()
        self.server_factory = server_factory
        self.plan = plan
        self.clock = clock
        self.scope = scope
        self._generation = 0
        self.front_end_restarts = 0
        self._crash_windows = tuple(
            spec for spec in plan.of_kind(FaultKind.CRASH_RESTART)
            if spec.scope == scope
        )
        self._wire_windows = tuple(
            spec for spec in plan.of_kind(FaultKind.DROP_DELAY_DUP)
            if spec.scope == scope
        )
        self._wire_rng = plan.stream(f"chaos.{scope}.wire")
        # -- message-overhead accounting (the chaos bench reads these)
        self.connects = 0
        self.refused_connects = 0
        self.requests_dropped = 0
        self.requests_duplicated = 0
        self.responses_dropped = 0
        self.responses_duplicated = 0
        self.responses_delayed = 0

    # -- availability --------------------------------------------------------

    def down_at(self, now: float) -> bool:
        return any(spec.active_at(now) for spec in self._crash_windows)

    def connect(self) -> "ChaosConnection":
        now = self.clock.now()
        if self.down_at(now):
            self.refused_connects += 1
            raise ConnectionClosedError(
                f"host {self.scope!r} is down at t={now:.3f}"
            )
        if self.server_factory is not None:
            generation = sum(1 for spec in self._crash_windows if spec.at <= now)
            if generation != self._generation:
                self.server = self.server_factory()
                self._generation = generation
                self.front_end_restarts += 1
        self.connects += 1
        return ChaosConnection(LocalConnection(self.server), self)

    # -- wire verdicts -------------------------------------------------------

    def _active_wire(self, now: float) -> Optional[FaultSpec]:
        for spec in self._wire_windows:
            if spec.active_at(now):
                return spec
        return None

    def request_verdict(self, now: float):
        spec = self._active_wire(now)
        if spec is None:
            return None
        draw = self._wire_rng.random()
        drop_p = float(spec.param("req_drop_p", 0.0))
        dup_p = float(spec.param("req_dup_p", 0.0))
        if draw < drop_p:
            return "drop"
        if draw < drop_p + dup_p:
            return "dup"
        return None

    def response_verdict(self, now: float):
        spec = self._active_wire(now)
        if spec is None:
            return None
        draw = self._wire_rng.random()
        drop_p = float(spec.param("resp_drop_p", 0.0))
        dup_p = float(spec.param("resp_dup_p", 0.0))
        delay_p = float(spec.param("resp_delay_p", 0.0))
        if draw < drop_p:
            return "drop"
        if draw < drop_p + dup_p:
            return "dup"
        if draw < drop_p + dup_p + delay_p:
            return ("delay", float(spec.param("resp_delay", 0.0)))
        return None

    @property
    def message_overhead(self) -> dict:
        """JSON-safe counters of chaos-added wire traffic."""
        return {
            "connects": self.connects,
            "refused_connects": self.refused_connects,
            "requests_dropped": self.requests_dropped,
            "requests_duplicated": self.requests_duplicated,
            "responses_dropped": self.responses_dropped,
            "responses_duplicated": self.responses_duplicated,
            "responses_delayed": self.responses_delayed,
        }


class ChaosConnection:
    """Connection wrapper applying the host's fault windows per call.

    Exposes the same ``send_bytes``/``recv_bytes``/``close``/``closed``
    surface as the transports in :mod:`repro.core.transports`, so a
    :class:`SpaceClient` cannot tell it apart from a healthy link.
    """

    def __init__(self, inner, host: ChaosHost):
        self.inner = inner
        self.host = host
        self.closed = False
        #: Responses held back by a delay verdict: ``(release_time, blob)``.
        self._delayed: list[tuple[float, bytes]] = []

    def send_bytes(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionClosedError("connection is closed")
        host = self.host
        now = host.clock.now()
        if host.down_at(now):
            self.closed = True
            raise ConnectionClosedError(
                f"host {host.scope!r} crashed at t={now:.3f}"
            )
        verdict = host.request_verdict(now)
        if verdict == "drop":
            host.requests_dropped += 1
            return
        if verdict == "dup":
            host.requests_duplicated += 1
            self.inner.send_bytes(data)
            self.inner.send_bytes(data)
            return
        self.inner.send_bytes(data)

    def recv_bytes(self, max_bytes: int = 65536) -> bytes:
        host = self.host
        now = host.clock.now()
        if host.down_at(now):
            # Front-end gone: buffered responses die with it.
            self.closed = True
            return b""
        out = bytearray()
        still_held: list[tuple[float, bytes]] = []
        for release, blob in self._delayed:
            if release <= now:
                out.extend(blob)
            else:
                still_held.append((release, blob))
        self._delayed = still_held
        data = self.inner.recv_bytes(max_bytes)
        if data:
            verdict = host.response_verdict(now)
            if verdict == "drop":
                host.responses_dropped += 1
            elif verdict == "dup":
                host.responses_duplicated += 1
                out.extend(data)
                out.extend(data)
            elif isinstance(verdict, tuple):
                host.responses_delayed += 1
                self._delayed.append((now + verdict[1], bytes(data)))
            else:
                out.extend(data)
        return bytes(out)

    def close(self) -> None:
        self.closed = True
        self.inner.close()
