"""The SpaceServer: protocol-level front end of a tuplespace.

Sec. 4.1: "The name of the space server class is SpaceServer"; clients
reach it through RMI or, for non-Java participants, through the socket
wrapper speaking the XML wire protocol of :mod:`repro.core.protocol`.

The server is transport-agnostic: a *session* is anything with a
``send(message)`` method.  Every transport (TCP sockets, in-memory
pipes, TpWIRE bridges) adapts its byte stream through one sans-IO
:class:`ServerConnection`, which parses frames, negotiates the codec
and turns requests into :meth:`SpaceServer.handle` calls.  Blocking
READ/TAKE requests park a space waiter plus a timeout timer, so one
server serves many sessions without threads of its own.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.errors import ProtocolError, SpaceError
from repro.core.lease import Lease
from repro.core.protocol import (
    Message,
    MessageType,
    StreamParser,
    XmlWireCodec,
    encode_message,
    make_wire_codec,
    negotiate_codec,
)
from repro.core.space import TupleSpace, WaitMode
from repro.core.xmlcodec import XmlCodec


class Timers:
    """Timeout scheduling protocol: ``call_later(delay, fn) -> handle``.

    A handle must expose ``cancel()``.
    """

    def call_later(self, delay: float, fn) -> Any:
        raise NotImplementedError


class SimTimers(Timers):
    """Timers on a :class:`repro.des.Simulator`."""

    class _Handle:
        def __init__(self, sim, event):
            self._sim = sim
            self._event = event

        def cancel(self) -> None:
            self._sim.cancel(self._event)

    def __init__(self, sim):
        self.sim = sim

    def call_later(self, delay: float, fn) -> "_Handle":
        return self._Handle(self.sim, self.sim.after(delay, fn))


class NullTimers(Timers):
    """No timeouts (blocking requests wait forever); for simple tests."""

    class _Handle:
        def cancel(self) -> None:
            pass

    def call_later(self, delay: float, fn) -> "_Handle":
        return self._Handle()


#: Default blocking-request timeout when the client sends none.
DEFAULT_TIMEOUT = 60.0


class _ParkedRequest:
    """A blocking READ/TAKE parked in the space: its waiter and the
    timer that answers RESULT_NULL if no match comes first."""

    __slots__ = ("waiter", "timer")

    def __init__(self):
        self.waiter = None
        self.timer = None

    @property
    def active(self) -> bool:
        return self.waiter.active

    def cancel(self) -> None:
        self.waiter.cancel()
        self.timer.cancel()


class SpaceServer:
    """Dispatches wire-protocol requests onto a :class:`TupleSpace`."""

    def __init__(
        self,
        space: TupleSpace,
        codec: XmlCodec,
        timers: Optional[Timers] = None,
        name: str = "SpaceServer",
        obs=None,
        lease_epoch: int = 0,
    ):
        """``lease_epoch`` is an incarnation number for lease ids.  The
        server keeps no lease table: a wire lease id is ``(lease_epoch
        << 32) + key``, where ``key`` is the grant's space key, and the
        space says whether that lease still lives.  Ids minted under
        another epoch are unknown here, so a restarted front end must
        pass a fresh epoch: a client holding a pre-crash id then learns
        that its grant must be re-bound, instead of silently renewing
        whatever grant the key names in a space rebuilt since.
        """
        self.space = space
        self.codec = codec
        self.timers = timers if timers is not None else NullTimers()
        self.name = name
        self.lease_epoch = lease_epoch
        #: Parked blocking requests and notify registrations per session
        #: (``id(session)`` keyed): cancelled when the transport reports
        #: the session closed, so a dead connection's TAKE can never
        #: consume a tuple and send it into the void, and its
        #: subscriptions stop matching writes.
        self._parked: dict[int, list] = {}
        self.requests_handled = 0
        self.errors_sent = 0
        self.waiters_reaped = 0
        # -- observability (nullable; stamped with the space's clock)
        self.obs = obs
        if obs is not None:
            obs.bind_clock(space.clock.now)
            obs.metrics.attach("server.requests", lambda: self.requests_handled)
            obs.metrics.attach("server.errors", lambda: self.errors_sent)
            self._wait_seconds = obs.metrics.histogram("server.wait_seconds")

    # -- main entry point -----------------------------------------------------

    def handle(self, session, message: Message) -> None:
        """Process one request; respond through ``session.send``."""
        self.requests_handled += 1
        if self.obs is not None:
            self.obs.tracer.event(
                "server", "request",
                type=message.msg_type.name, request=message.request_id,
            )
        handler = self._HANDLERS.get(message.msg_type)
        if handler is None:
            self._error(session, message, f"unexpected message type "
                                          f"{message.msg_type.name}")
            return
        try:
            handler(self, session, message)
        except (SpaceError, ProtocolError) as exc:
            self._error(session, message, str(exc))

    # -- individual operations ---------------------------------------------------

    #: Effectively-expired writes get this microscopic lease so the write
    #: succeeds but the entry is never visible to a later take.
    EXPIRED_LEASE = 1e-9

    def _handle_write(self, session, message: Message) -> None:
        if message.item is None:
            raise ProtocolError("WRITE carries no entry")
        lease_duration = message.param_float("lease")
        created_at = message.param_float("created_at")
        op_key = message.params.get("op_key")
        dead_on_arrival = False
        if lease_duration is not None and created_at is not None:
            # The entry's lifetime counts from its creation at the client
            # (clock-synchronized deployments); grant only the remainder.
            age = max(0.0, self.space.clock.now() - created_at)
            remaining = lease_duration - age
            dead_on_arrival = remaining <= 0
            lease_duration = max(self.EXPIRED_LEASE, remaining)
        dups_before = self.space.duplicate_writes
        lease = self.space.write(message.item, lease=lease_duration, op_key=op_key)
        duplicate = self.space.duplicate_writes > dups_before
        if dead_on_arrival and not duplicate:
            lease.cancel()
        params = {"lease_id": self._lease_id(lease), "granted": lease.duration}
        if op_key is not None:
            # Only idempotent writes report duplicate status; plain
            # writes keep the historical ack shape (and wire length —
            # the cosim golden traces are byte-exact).
            params["dup"] = int(duplicate)
        session.send(Message(MessageType.WRITE_ACK, message.request_id, params))

    def _handle_blocking(self, session, message: Message, mode: WaitMode) -> None:
        if message.item is None:
            raise ProtocolError(f"{message.msg_type.name} carries no template")
        timeout = message.param_float("timeout", DEFAULT_TIMEOUT)
        parked = _ParkedRequest()
        started = self.space.clock.now()

        def observe_wait(outcome: str) -> None:
            if self.obs is None:
                return
            self._wait_seconds.observe(self.space.clock.now() - started)
            self.obs.tracer.event(
                "server", "reply",
                type=message.msg_type.name, request=message.request_id,
                outcome=outcome,
            )

        def on_match(item):
            # The space deactivates the waiter before calling back, so
            # a later timeout finds it inactive and stays silent.
            if parked.timer is not None:
                parked.timer.cancel()
            observe_wait("match")
            session.send(Message(
                MessageType.RESULT_ENTRY, message.request_id, {}, item
            ))

        parked.waiter = self.space.register_waiter(message.item, mode, on_match)
        if not parked.waiter.active:
            return

        def on_timeout():
            if not parked.waiter.active:
                return
            parked.waiter.cancel()
            observe_wait("timeout")
            session.send(Message(MessageType.RESULT_NULL, message.request_id))

        parked.timer = self.timers.call_later(timeout, on_timeout)
        self._park(session, parked)

    def _park(self, session, held) -> None:
        """Hold ``held`` (anything with ``active`` and ``cancel()``)
        until ``session`` closes, forgetting the ones that ended."""
        parked = self._parked.setdefault(id(session), [])
        parked[:] = [entry for entry in parked if entry.active]
        parked.append(held)

    def session_closed(self, session) -> None:
        """Cancel the parked requests and registrations of a dead session.

        Transports call this when a connection dies.  Without it, a
        parked TAKE waiter from the dead connection would still fire on
        the next matching write — consuming the tuple and sending the
        response into the void, which a surviving client observes as a
        lost acknowledged write — and its notify registrations would
        keep counting notifications nobody can receive.
        """
        for held in self._parked.pop(id(session), ()):
            if not held.active:
                continue
            held.cancel()
            if isinstance(held, _ParkedRequest):
                self.waiters_reaped += 1

    def _handle_read(self, session, message: Message) -> None:
        self._handle_blocking(session, message, WaitMode.READ)

    def _handle_take(self, session, message: Message) -> None:
        self._handle_blocking(session, message, WaitMode.TAKE)

    def _handle_if_exists(self, session, message: Message, take: bool) -> None:
        if message.item is None:
            raise ProtocolError(f"{message.msg_type.name} carries no template")
        if take:
            item = self.space.take_if_exists(message.item)
        else:
            item = self.space.read_if_exists(message.item)
        if item is None:
            session.send(Message(MessageType.RESULT_NULL, message.request_id))
        else:
            session.send(Message(
                MessageType.RESULT_ENTRY, message.request_id, {}, item
            ))

    def _handle_read_if_exists(self, session, message: Message) -> None:
        self._handle_if_exists(session, message, take=False)

    def _handle_take_if_exists(self, session, message: Message) -> None:
        self._handle_if_exists(session, message, take=True)

    def _handle_notify_register(self, session, message: Message) -> None:
        if message.item is None:
            raise ProtocolError("NOTIFY_REGISTER carries no template")
        lease_duration = message.param_float("lease")

        def listener(event):
            session.send(Message(
                MessageType.NOTIFY_EVENT,
                message.request_id,
                {
                    "registration_id": event.registration_id,
                    "sequence": event.sequence,
                },
                event.item,
            ))

        registration = self.space.notify(message.item, listener, lease_duration)
        self._park(session, registration)
        session.send(Message(
            MessageType.NOTIFY_ACK,
            message.request_id,
            {
                "registration_id": registration.registration_id,
                "lease_id": self._lease_id(registration.lease),
            },
        ))

    def _handle_cancel_lease(self, session, message: Message) -> None:
        lease = self._lease_for(message)
        lease.cancel()
        session.send(Message(
            MessageType.LEASE_ACK, message.request_id, {"remaining": 0.0}
        ))

    def _handle_renew_lease(self, session, message: Message) -> None:
        lease = self._lease_for(message)
        duration = message.param_float("duration")
        if duration is None:
            raise ProtocolError("RENEW_LEASE needs a duration")
        granted = lease.renew(duration)
        session.send(Message(
            MessageType.LEASE_ACK,
            message.request_id,
            # "granted" is the post-clamp term: when the space's
            # max_lease caps the request, the client learns the real
            # duration instead of silently over-estimating it.
            {"remaining": lease.remaining(), "granted": granted},
        ))

    def _handle_ping(self, session, message: Message) -> None:
        session.send(Message(MessageType.PONG, message.request_id))

    # -- helpers ----------------------------------------------------------------

    def _lease_id(self, lease: Lease) -> int:
        return (self.lease_epoch << 32) + lease.key

    def _lease_for(self, message: Message) -> Lease:
        """The live lease a request's ``lease_id`` names, asked of the
        space; an id from another epoch, or of a grant that ended, is
        unknown."""
        lease_id = message.param_int("lease_id")
        if lease_id is None:
            raise ProtocolError("missing lease_id")
        epoch, key = divmod(lease_id, 1 << 32)
        lease = self.space.lease(key) if epoch == self.lease_epoch else None
        if lease is None:
            raise ProtocolError(f"unknown lease id {lease_id}")
        return lease

    def _error(self, session, message: Message, text: str) -> None:
        self.errors_sent += 1
        if self.obs is not None:
            self.obs.tracer.event(
                "server", "error",
                type=message.msg_type.name, request=message.request_id,
            )
        session.send(Message(
            MessageType.ERROR, message.request_id, {"text": text}
        ))

    _HANDLERS = {
        MessageType.WRITE: _handle_write,
        MessageType.READ: _handle_read,
        MessageType.TAKE: _handle_take,
        MessageType.READ_IF_EXISTS: _handle_read_if_exists,
        MessageType.TAKE_IF_EXISTS: _handle_take_if_exists,
        MessageType.NOTIFY_REGISTER: _handle_notify_register,
        MessageType.CANCEL_LEASE: _handle_cancel_lease,
        MessageType.RENEW_LEASE: _handle_renew_lease,
        MessageType.PING: _handle_ping,
    }


class ServerConnection:
    """Sans-IO server half of one connection: bytes in, replies out.

    Every server front end drives this one state machine.  :meth:`feed`
    runs inbound bytes through the :class:`StreamParser`; a malformed
    frame is answered with ERROR when its request id survived and the
    connection closes (a frame that lost sync just closes).  HELLO
    switches the body codec of both directions; every other request is
    dispatched to the :class:`SpaceServer`'s ``handle``, looked up on
    the instance per request.  The connection is its own session:
    replies come back through :meth:`send`, encoded and passed to
    ``transmit(bytes)``.
    :meth:`close` reaps the session's parked requests.
    """

    def __init__(self, server: SpaceServer, transmit: Callable[[bytes], None]):
        self.server = server
        self.transmit = transmit
        self.wire = XmlWireCodec(server.codec)
        self.parser = StreamParser(self.wire)
        self.closed = False

    def send(self, message: Message) -> None:
        if not self.closed:
            self.transmit(encode_message(message, self.wire))

    def feed(self, data: bytes) -> bool:
        """Handle inbound bytes; ``False`` once the connection is closed."""
        try:
            messages = self.parser.feed(data)
        except ProtocolError as exc:
            self.reject(exc)
            return False
        for message in messages:
            if message.msg_type is MessageType.HELLO:
                self.hello(message)
            else:
                self.dispatch(message)
            if self.closed:
                return False
        return True

    def dispatch(self, message: Message) -> None:
        self.server.handle(self, message)

    def hello(self, message: Message) -> str:
        """Ack in the current encoding, then switch both directions."""
        chosen = negotiate_codec(message.params.get("codecs", "")) or "xml"
        self.send(Message(MessageType.HELLO_ACK, message.request_id, {"codec": chosen}))
        self.wire = make_wire_codec(chosen, self.server.codec)
        self.parser.set_codec(self.wire)
        return chosen

    def reject(self, exc: ProtocolError) -> None:
        """A malformed frame is the peer's bug: answer ERROR if the
        frame's request id is recoverable, then close."""
        request_id = self.parser.error_request_id
        if request_id is not None:
            self.send(Message(MessageType.ERROR, request_id, {"text": str(exc)}))
        self.close()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.server.session_closed(self)
