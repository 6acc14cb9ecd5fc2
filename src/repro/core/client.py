"""Synchronous space client (the "C++ client" of the paper, host flavour).

Speaks the XML wire protocol over any connection exposing ``send_bytes``
/ ``recv_bytes`` — a TCP socket, the in-process loopback, or anything
byte-stream shaped.  The client keeps one outstanding request at a time
(the embedded client of the paper is likewise strictly sequential);
asynchronous NOTIFY_EVENT messages interleaved with responses are
dispatched to registered callbacks.

The protocol itself lives in :class:`~repro.core.protocol.ClientSession`;
:class:`SpaceOperations` is the space API shared with the asyncio client
and the simulated board client.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.clock import Clock, SystemClock
from repro.core.errors import ConnectionClosedError, RequestTimeoutError
from repro.core.protocol import Call, ClientSession, Message
from repro.core.xmlcodec import XmlCodec


def _nothing(_terms: dict) -> None:
    return None


def _remaining(terms: dict) -> float:
    return terms["remaining"]


class SpaceOperations:
    """The space API over a :class:`ClientSession`, for any shell.

    Each operation builds its :class:`Call` and hands it to the shell's
    ``_call``: :class:`SpaceClient` returns the result, the asyncio
    client returns an awaitable of it and the simulated board client a
    generator that a DES process drives to it.
    """

    session: ClientSession

    def _call(self, call: Call) -> Any:
        raise NotImplementedError

    def write(
        self,
        entry: Any,
        lease: Optional[float] = None,
        created_at: Optional[float] = None,
        op_key: Optional[str] = None,
    ) -> dict:
        """Write an entry; returns ``{"lease_id": ..., "granted": ..., "dup": ...}``.

        ``created_at`` (a clock-synchronized timestamp) makes the entry's
        lifetime count from its creation at the client rather than from
        its arrival at the server.

        ``op_key`` is an idempotency key: retrying the write with the
        same key after a lost acknowledgement returns the original grant
        (``dup`` True) instead of storing a second tuple.
        """
        return self._call(self.session.write(entry, lease, created_at, op_key))

    def read(self, template: Any, timeout: Optional[float] = None) -> Optional[Any]:
        """Blocking read; ``None`` when the server times out the request."""
        return self._call(self.session.read(template, timeout))

    def take(self, template: Any, timeout: Optional[float] = None) -> Optional[Any]:
        """Blocking take; ``None`` when the server times out the request."""
        return self._call(self.session.take(template, timeout))

    def read_if_exists(self, template: Any) -> Optional[Any]:
        return self._call(self.session.read_if_exists(template))

    def take_if_exists(self, template: Any) -> Optional[Any]:
        return self._call(self.session.take_if_exists(template))

    def notify(
        self,
        template: Any,
        callback: Callable[[Message], None],
        lease: Optional[float] = None,
    ) -> dict:
        """Subscribe; ``callback(message)`` runs for each NOTIFY_EVENT."""
        return self._call(self.session.notify(template, callback, lease))

    def cancel_lease(self, lease_id: int) -> None:
        return self._call(self.session.cancel_lease(lease_id).then(_nothing))

    def renew_lease(self, lease_id: int, duration: float) -> float:
        return self._call(
            self.session.renew_lease(lease_id, duration).then(_remaining)
        )

    def ping(self) -> bool:
        return self._call(self.session.ping())

    def hello(self, codecs: str = "binary,xml") -> str:
        """Negotiate the body codec; returns the server's pick.

        Must be the first request on the connection; a server that
        answers ERROR leaves the client on XML
        (:meth:`ClientSession.negotiate`).
        """
        return self._call(self.session.negotiate(codecs))

    # -- session state -----------------------------------------------------------

    @property
    def wire_codec(self) -> str:
        return self.session.wire_codec

    @property
    def stale_responses(self) -> int:
        return self.session.stale_responses


class SpaceClient(SpaceOperations):
    """Blocking client for a remote space server."""

    def __init__(
        self,
        connection,
        codec: XmlCodec,
        poll_interval: float = 0.005,
        clock: Optional[Clock] = None,
        request_timeout: Optional[float] = None,
    ):
        """``clock`` paces the response polling loop.

        Defaults to the wall clock; inject a
        :class:`~repro.core.clock.ManualClock` (tests) or any other
        :class:`~repro.core.clock.Clock` to make polling deterministic.

        ``request_timeout`` bounds how long a request may poll for its
        response before raising :class:`RequestTimeoutError` — without
        it a dropped response means polling forever.  ``None`` keeps the
        historical wait-forever behaviour.
        """
        self.connection = connection
        self.codec = codec
        self.poll_interval = poll_interval
        self.clock = clock if clock is not None else SystemClock()
        self.request_timeout = request_timeout
        self.session = ClientSession(codec)

    def poll_events(self) -> int:
        """Drain pending notify events without issuing a request.

        Never blocks: connections exposing ``recv_ready()`` (sockets,
        the loopback) are only read when bytes are already pending —
        a bare blocking ``recv`` here used to park the caller forever
        when no event had arrived.
        """
        ready = getattr(self.connection, "recv_ready", None)
        if ready is not None and not ready():
            return 0
        before = self.session.events_received
        self.session.receive(self.connection.recv_bytes())
        return self.session.events_received - before

    def _call(self, call: Call) -> Any:
        request_id, wire = self.session.start(call, call)
        try:
            self.connection.send_bytes(wire)
            reply = self._await_reply(request_id)
        finally:
            self.session.abandon(request_id)
        return call.decode(reply)

    def _await_reply(self, request_id: int) -> Message:
        deadline = (
            None
            if self.request_timeout is None
            else self.clock.now() + self.request_timeout
        )
        while True:
            data = self.connection.recv_bytes()
            if not data:
                if getattr(self.connection, "closed", False):
                    raise ConnectionClosedError("connection closed mid-request")
                if deadline is not None and self.clock.now() >= deadline:
                    raise RequestTimeoutError(
                        f"no response to request {request_id} within "
                        f"{self.request_timeout}s"
                    )
                self.clock.sleep(self.poll_interval)
                continue
            # One request is outstanding, so any completion is ours.
            for _call, reply in self.session.receive(data):
                return reply
