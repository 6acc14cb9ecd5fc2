"""Request contracts that hold across codecs and lease parameters.

* **A NaN never reaches a lease or a timer.**  A NaN duration compares
  false against every bound: a ``WRITE`` with ``lease="nan"`` was acked
  ``granted: nan`` and stored forever, its ``(nan, seq)`` deadline sat at
  the top of the expiry heap and stalled every later expiry, and
  ``RENEW_LEASE duration="nan"`` or ``READ timeout="nan"`` did the same
  to a renewed lease or a timer.  The wire refuses such a parameter
  with ERROR, and the lease layer refuses a NaN duration.
* **A taker that cannot be sent an entry does not consume it.**  XML 1.0
  cannot carry ``"\\x00"``, which the binary codec can.  An XML client's
  ``TAKE_IF_EXISTS`` of an entry a binary client wrote used to remove it
  and answer ERROR; a parked XML ``TAKE`` made the binary writer's own
  ``WRITE`` fail instead, and the taker was never answered.  Now the
  taker gets ERROR under its own request id, the entry stays under its
  lease id, and the writer gets its ``WRITE_ACK``.
* **A listener that cannot be sent an event does not fail the write.**
  A NOTIFY registration on an XML connection used to turn a binary
  client's ``WRITE`` of such an entry into ERROR (the entry stored
  anyway) and starve the registrations after it.  Now the writer gets
  ``WRITE_ACK``, every other matching registration its event, and the
  XML listener ERROR under its ``NOTIFY_REGISTER`` request id.

Requests cross the wire as frames through the sans-IO connection cores
(:class:`ClientSession` in, :class:`ServerConnection` out).
"""

import math

import pytest

from repro.core import (
    Entry,
    ManualClock,
    Message,
    MessageType,
    SpaceServer,
    TupleSpace,
    XmlCodec,
)
from repro.core.errors import LeaseDeniedError, ProtocolError
from repro.core.lease import Lease, LeaseManager
from repro.core.protocol import ClientSession
from repro.core.server import ServerConnection


class Part(Entry):
    def __init__(self, key=None, station=None, weight=None):
        self.key = key
        self.station = station
        self.weight = weight


class Peer:
    """One client connection, frames in and out in memory."""

    def __init__(self, server: SpaceServer, codec: str):
        self.inbox = bytearray()
        self.connection = ServerConnection(server, self.inbox.extend)
        self.session = ClientSession(server.codec)
        if codec == "binary":
            assert self.call(self.session.negotiate("binary")) == "binary"

    def start(self, call) -> int:
        """Send ``call``; return its request id."""
        request_id, frame = self.session.start(call, call)
        self.connection.feed(frame)
        return request_id

    def replies(self) -> list:
        """``(call, reply message)`` for every reply received since."""
        data = bytes(self.inbox)
        self.inbox.clear()
        return self.session.receive(data)

    def call(self, call):
        self.start(call)
        ((done, reply),) = self.replies()
        return done.decode(reply)

    def message(self, call) -> Message:
        self.start(call)
        ((_done, reply),) = self.replies()
        return reply

    def frames(self) -> list:
        """Every message received since, undispatched."""
        data = bytes(self.inbox)
        self.inbox.clear()
        return list(self.session.parser.feed(data))


@pytest.fixture
def served():
    clock = ManualClock()
    registry = XmlCodec()
    registry.register(Part)
    space = TupleSpace(clock=clock)
    return clock, space, SpaceServer(space, registry)


# -- NaN parameters ----------------------------------------------------------


def _frame_call(peer: Peer, msg_type: MessageType, params: dict, item=None):
    """A raw request, bypassing the client's own number formatting."""
    call = peer.session.ping()
    call.msg_type, call.params, call.item = msg_type, params, item
    return peer.message(call)


class TestNanOnTheWire:
    def test_write_with_nan_lease_is_refused_and_stores_nothing(self, served):
        _clock, space, server = served
        peer = Peer(server, "xml")
        reply = _frame_call(peer, MessageType.WRITE, {"lease": "nan"}, Part(1))
        assert reply.msg_type is MessageType.ERROR
        assert "lease='nan' is not a number" in reply.params["text"]
        assert len(space) == 0 and not space._expiry_heap

    def test_renew_with_nan_duration_is_refused_and_keeps_the_deadline(self, served):
        clock, space, server = served
        peer = Peer(server, "binary")
        ack = peer.call(peer.session.write(Part(1), lease=5.0))
        reply = _frame_call(
            peer, MessageType.RENEW_LEASE, {"lease_id": ack["lease_id"], "duration": "nan"}
        )
        assert reply.msg_type is MessageType.ERROR
        clock.advance(6.0)
        assert space.read_if_exists(Part(key=1)) is None
        assert len(space._records) == 0

    def test_blocking_read_with_nan_timeout_is_refused(self, served):
        _clock, _space, server = served
        peer = Peer(server, "xml")
        reply = _frame_call(peer, MessageType.READ, {"timeout": "nan"}, Part(key=1))
        assert reply.msg_type is MessageType.ERROR
        assert server._parked == {}


class TestNanInProcess:
    def test_param_float_refuses_nan_in_any_spelling(self):
        for text in ("nan", "NaN", "-nan", float("nan")):
            with pytest.raises(ProtocolError):
                Message(MessageType.WRITE, 1, {"lease": text}).param_float("lease")
        assert Message(MessageType.WRITE, 1, {"lease": "inf"}).param_float("lease") == math.inf

    def test_lease_layer_refuses_nan(self):
        clock = ManualClock()
        manager = LeaseManager(clock)
        with pytest.raises(LeaseDeniedError):
            manager.grant(math.nan)
        with pytest.raises(LeaseDeniedError):
            Lease(clock, math.nan)
        with pytest.raises(LeaseDeniedError):
            LeaseManager(clock, max_lease=math.nan)
        lease = manager.grant(5.0)
        with pytest.raises(LeaseDeniedError):
            lease.renew(math.nan)
        assert lease.expires_at == 5.0
        assert math.isinf(manager.grant(math.inf).expires_at)

    def test_a_refused_nan_write_does_not_stall_expiry(self):
        clock = ManualClock()
        space = TupleSpace(clock=clock)
        with pytest.raises(LeaseDeniedError):
            space.write(Part(0), lease=math.nan)
        space.write(Part(1), lease=1.0)
        space.write(Part(2), lease=2.0)
        clock.advance(10.0)
        assert space.read_if_exists(Part()) is None
        assert len(space._records) == 0 and not space._expiry_heap


# -- takes across codecs -------------------------------------------------------


UNENCODABLE_IN_XML = Part(1, "a\x00b", 2.0)


class TestTakeAcrossCodecs:
    def test_xml_take_if_exists_leaves_an_entry_it_cannot_carry(self, served):
        _clock, space, server = served
        writer, taker = Peer(server, "binary"), Peer(server, "xml")
        ack = writer.call(writer.session.write(UNENCODABLE_IN_XML))
        request_id = taker.start(taker.session.take_if_exists(Part(key=1)))
        ((_call, reply),) = taker.replies()
        assert reply.msg_type is MessageType.ERROR
        assert reply.request_id == request_id
        assert "XML 1.0" in reply.params["text"]
        assert space.lease(ack["lease_id"]) is not None
        assert writer.call(writer.session.take_if_exists(Part(key=1))) == UNENCODABLE_IN_XML

    def test_parked_xml_take_leaves_the_entry_and_the_writer_is_acked(self, served):
        _clock, space, server = served
        writer, taker = Peer(server, "binary"), Peer(server, "xml")
        request_id = taker.start(taker.session.take(Part(key=1), timeout=30.0))
        assert taker.replies() == []
        write_ack = writer.message(writer.session.write(UNENCODABLE_IN_XML))
        assert write_ack.msg_type is MessageType.WRITE_ACK
        ((_call, reply),) = taker.replies()
        assert reply.msg_type is MessageType.ERROR
        assert reply.request_id == request_id
        assert space.lease(write_ack.param_int("lease_id")) is not None
        assert server._parked[id(taker.connection)][0].active is False
        assert writer.call(writer.session.take_if_exists(Part(key=1))) == UNENCODABLE_IN_XML

    def test_parked_xml_read_answers_error_and_the_writer_is_acked(self, served):
        _clock, space, server = served
        writer, reader = Peer(server, "binary"), Peer(server, "xml")
        request_id = reader.start(reader.session.read(Part(key=1), timeout=30.0))
        write_ack = writer.message(writer.session.write(UNENCODABLE_IN_XML))
        assert write_ack.msg_type is MessageType.WRITE_ACK
        ((_call, reply),) = reader.replies()
        assert (reply.msg_type, reply.request_id) == (MessageType.ERROR, request_id)
        assert len(space) == 1

    def test_a_parked_taker_that_can_carry_it_still_gets_it(self, served):
        _clock, space, server = served
        writer, xml_taker, binary_taker = (
            Peer(server, "binary"), Peer(server, "xml"), Peer(server, "binary"))
        xml_taker.start(xml_taker.session.take(Part(key=1), timeout=30.0))
        binary_taker.start(binary_taker.session.take(Part(key=1), timeout=30.0))
        assert writer.message(writer.session.write(UNENCODABLE_IN_XML)).msg_type is (
            MessageType.WRITE_ACK)
        ((_call, refused),) = xml_taker.replies()
        ((call, taken),) = binary_taker.replies()
        assert refused.msg_type is MessageType.ERROR
        assert call.decode(taken) == UNENCODABLE_IN_XML
        assert len(space) == 0


class TestNotifyAcrossCodecs:
    def test_xml_listener_gets_error_and_the_binary_writer_is_acked(self, served):
        _clock, space, server = served
        writer, listener = Peer(server, "binary"), Peer(server, "xml")
        request_id = listener.start(listener.session.notify(Part(key=1), lambda _event: None))
        ((_call, ack),) = listener.replies()
        assert ack.msg_type is MessageType.NOTIFY_ACK
        write_ack = writer.message(writer.session.write(UNENCODABLE_IN_XML))
        assert write_ack.msg_type is MessageType.WRITE_ACK
        assert len(space) == 1
        (refused,) = listener.frames()
        assert (refused.msg_type, refused.request_id) == (MessageType.ERROR, request_id)
        assert "XML 1.0" in refused.params["text"]

    def test_every_other_matching_registration_gets_its_event(self, served):
        _clock, _space, server = served
        writer, xml_listener, binary_listener = (
            Peer(server, "binary"), Peer(server, "xml"), Peer(server, "binary"))
        events = []
        xml_listener.call(xml_listener.session.notify(Part(key=1), lambda _event: None))
        binary_listener.call(binary_listener.session.notify(Part(key=1), events.append))
        assert writer.message(writer.session.write(UNENCODABLE_IN_XML)).msg_type is (
            MessageType.WRITE_ACK)
        assert binary_listener.replies() == []
        (event,) = events
        assert event.msg_type is MessageType.NOTIFY_EVENT
        assert event.item == UNENCODABLE_IN_XML
        ((refused,),) = [xml_listener.frames()]
        assert refused.msg_type is MessageType.ERROR
