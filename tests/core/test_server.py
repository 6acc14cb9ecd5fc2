"""SpaceServer request dispatch."""

import gc
import weakref

import pytest

from repro.core import (
    Entry,
    LindaTuple,
    ManualClock,
    Message,
    MessageType,
    SimClock,
    SpaceServer,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core.server import SimTimers
from repro.des import Simulator


class SinkSession:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)

    @property
    def last(self):
        return self.sent[-1]


class Part(Entry):
    def __init__(self, serial=None):
        self.serial = serial


class DropSession:
    def send(self, message):
        pass


def t(*fields):
    return LindaTuple(*fields)


def tpl(*patterns):
    return TupleTemplate(*patterns)


@pytest.fixture
def setup():
    clock = ManualClock()
    space = TupleSpace(clock=clock)
    server = SpaceServer(space, XmlCodec())
    return clock, space, server, SinkSession()


class TestWrite:
    def test_write_acks_with_lease(self, setup):
        _clock, space, server, session = setup
        server.handle(session, Message(MessageType.WRITE, 1, {"lease": 60}, t("a")))
        reply = session.last
        assert reply.msg_type is MessageType.WRITE_ACK
        assert reply.param_float("granted") == 60.0
        assert len(space) == 1

    def test_write_without_entry_errors(self, setup):
        _clock, _space, server, session = setup
        server.handle(session, Message(MessageType.WRITE, 1))
        assert session.last.msg_type is MessageType.ERROR
        assert server.errors_sent == 1

    def test_created_at_shortens_lease(self, setup):
        clock, space, server, session = setup
        clock.advance(50.0)
        server.handle(session, Message(
            MessageType.WRITE, 1,
            {"lease": 160, "created_at": 0.0}, t("a"),
        ))
        assert session.last.param_float("granted") == pytest.approx(110.0)

    def test_created_at_already_expired(self, setup):
        clock, space, server, session = setup
        clock.advance(200.0)
        server.handle(session, Message(
            MessageType.WRITE, 1,
            {"lease": 160, "created_at": 0.0}, t("a"),
        ))
        assert session.last.msg_type is MessageType.WRITE_ACK
        # The entry is never visible.
        server.handle(session, Message(
            MessageType.TAKE_IF_EXISTS, 2, {}, tpl("a"),
        ))
        assert session.last.msg_type is MessageType.RESULT_NULL


class TestIfExists:
    def test_hit_and_miss(self, setup):
        _clock, space, server, session = setup
        space.write(t("a", 5))
        server.handle(session, Message(MessageType.READ_IF_EXISTS, 1, {}, tpl("a", int)))
        assert session.last.msg_type is MessageType.RESULT_ENTRY
        assert session.last.item == t("a", 5)
        server.handle(session, Message(MessageType.TAKE_IF_EXISTS, 2, {}, tpl("a", int)))
        assert session.last.item == t("a", 5)
        server.handle(session, Message(MessageType.TAKE_IF_EXISTS, 3, {}, tpl("a", int)))
        assert session.last.msg_type is MessageType.RESULT_NULL

    def test_template_required(self, setup):
        _clock, _space, server, session = setup
        server.handle(session, Message(MessageType.READ_IF_EXISTS, 1))
        assert session.last.msg_type is MessageType.ERROR


class TestBlockingWithSimTimers:
    def make(self):
        sim = Simulator()
        space = TupleSpace(clock=SimClock(sim))
        server = SpaceServer(space, XmlCodec(), timers=SimTimers(sim))
        return sim, space, server, SinkSession()

    def test_blocked_take_served_by_later_write(self):
        sim, space, server, session = self.make()
        server.handle(session, Message(MessageType.TAKE, 1, {"timeout": 100}, tpl("a")))
        assert session.sent == []  # parked
        sim.after(5.0, space.write, t("a"))
        sim.run()
        assert session.last.msg_type is MessageType.RESULT_ENTRY
        assert len(space) == 0

    def test_blocked_read_leaves_entry(self):
        sim, space, server, session = self.make()
        server.handle(session, Message(MessageType.READ, 1, {"timeout": 100}, tpl("a")))
        sim.after(5.0, space.write, t("a"))
        sim.run()
        assert session.last.msg_type is MessageType.RESULT_ENTRY
        assert len(space) == 1

    def test_timeout_returns_null(self):
        sim, _space, server, session = self.make()
        server.handle(session, Message(MessageType.TAKE, 1, {"timeout": 10}, tpl("a")))
        sim.run()
        assert sim.now == pytest.approx(10.0)
        assert session.last.msg_type is MessageType.RESULT_NULL

    def test_immediate_match_no_timer(self):
        sim, space, server, session = self.make()
        space.write(t("a"))
        server.handle(session, Message(MessageType.TAKE, 1, {"timeout": 10}, tpl("a")))
        assert session.last.msg_type is MessageType.RESULT_ENTRY
        assert sim.pending_events == 0  # no dangling timeout

    def test_write_after_timeout_not_consumed(self):
        sim, space, server, session = self.make()
        server.handle(session, Message(MessageType.TAKE, 1, {"timeout": 10}, tpl("a")))
        sim.after(20.0, space.write, t("a"))
        sim.run()
        assert session.last.msg_type is MessageType.RESULT_NULL
        assert len(space) == 1


class TestNotify:
    def test_register_and_event_delivery(self, setup):
        _clock, space, server, session = setup
        server.handle(session, Message(MessageType.NOTIFY_REGISTER, 1, {}, tpl("alarm")))
        ack = session.last
        assert ack.msg_type is MessageType.NOTIFY_ACK
        registration_id = ack.param_int("registration_id")
        space.write(t("alarm"))
        event = session.last
        assert event.msg_type is MessageType.NOTIFY_EVENT
        assert event.param_int("registration_id") == registration_id
        assert event.param_int("sequence") == 1

    def test_closed_session_registrations_are_cancelled(self, setup):
        _clock, space, server, session = setup
        server.handle(session, Message(MessageType.NOTIFY_REGISTER, 1, {}, tpl("alarm")))
        lease_id = session.last.param_int("lease_id")
        server.handle(session, Message(MessageType.TAKE, 2, {}, tpl("job")))
        server.session_closed(session)
        assert server.waiters_reaped == 1      # the TAKE, not the subscription
        space.write(t("alarm"))
        assert space.stats.notifications == 0
        assert [m.msg_type for m in session.sent] == [MessageType.NOTIFY_ACK]
        assert space.lease(lease_id) is None   # epoch 0: the id is the key


class TestLeaseOps:
    def test_cancel_lease_removes_entry(self, setup):
        _clock, space, server, session = setup
        server.handle(session, Message(MessageType.WRITE, 1, {"lease": 60}, t("a")))
        lease_id = session.last.param_int("lease_id")
        server.handle(session, Message(MessageType.CANCEL_LEASE, 2, {"lease_id": lease_id}))
        assert session.last.msg_type is MessageType.LEASE_ACK
        assert len(space) == 0

    def test_renew_lease(self, setup):
        clock, _space, server, session = setup
        server.handle(session, Message(MessageType.WRITE, 1, {"lease": 60}, t("a")))
        lease_id = session.last.param_int("lease_id")
        clock.advance(50.0)
        server.handle(session, Message(
            MessageType.RENEW_LEASE, 2, {"lease_id": lease_id, "duration": 60},
        ))
        assert session.last.param_float("remaining") == pytest.approx(60.0)
        assert session.last.param_float("granted") == pytest.approx(60.0)

    def test_unknown_lease_id_errors(self, setup):
        _clock, _space, server, session = setup
        server.handle(session, Message(MessageType.CANCEL_LEASE, 1, {"lease_id": 99}))
        assert session.last.msg_type is MessageType.ERROR


class TestLeaseRetirement:
    """The space alone decides whether a wire lease id still names a
    live grant; the server keeps no lease table that could pin entries
    or go stale."""

    def test_taken_entries_are_freed(self, setup):
        _clock, space, server, _session = setup
        session = DropSession()
        refs = []
        for serial in range(200):
            part = Part(serial)
            refs.append(weakref.ref(part))
            server.handle(session, Message(
                MessageType.WRITE, 2 * serial, {"lease": 160}, part,
            ))
            server.handle(session, Message(
                MessageType.TAKE_IF_EXISTS, 2 * serial + 1, {}, Part(serial),
            ))
        del part
        gc.collect()
        assert len(space) == 0
        assert [ref() for ref in refs if ref() is not None] == []

    def test_duplicate_write_acks_the_original_id_after_take_and_gc(self, setup):
        _clock, space, server, session = setup
        original_write = Message(
            MessageType.WRITE, 1, {"lease": 160, "op_key": "c:1"}, t("a", 0),
        )
        server.handle(session, original_write)
        original = session.last.param_int("lease_id")
        assert space.take_if_exists(tpl("a", int)) == t("a", 0)
        later = set()
        for n in range(2, 2002):
            server.handle(session, Message(
                MessageType.WRITE, n, {"lease": 160}, t("b", n),
            ))
            later.add(session.last.param_int("lease_id"))
            space.take_if_exists(tpl("b", int))
            session.sent.clear()
            if n % 500 == 0:
                gc.collect()
        assert original not in later
        server.handle(session, original_write)
        assert session.last.msg_type is MessageType.WRITE_ACK
        assert session.last.param_int("lease_id") == original
        assert session.last.param_int("dup") == 1
        assert len(space) == 0

    @pytest.mark.parametrize("op", ["RENEW_LEASE", "CANCEL_LEASE"])
    @pytest.mark.parametrize(
        "ending", ["taken", "cancelled", "expired", "dead-on-arrival", "other-epoch"],
    )
    def test_ended_lease_is_unknown(self, setup, op, ending):
        clock, space, server, session = setup
        params = {"lease": 60}
        if ending == "dead-on-arrival":
            clock.advance(100.0)
            params["created_at"] = 0.0
        server.handle(session, Message(MessageType.WRITE, 1, params, t("a")))
        lease_id = session.last.param_int("lease_id")
        if ending == "taken":
            assert space.take_if_exists(tpl("a")) == t("a")
        elif ending == "cancelled":
            server.handle(session, Message(
                MessageType.CANCEL_LEASE, 2, {"lease_id": lease_id},
            ))
            assert session.last.msg_type is MessageType.LEASE_ACK
        elif ending == "expired":
            clock.advance(60.0)
        elif ending == "other-epoch":
            # A restarted front end over the same, still-live entry.
            server = SpaceServer(space, XmlCodec(), lease_epoch=1)
        server.handle(session, Message(
            MessageType[op], 3, {"lease_id": lease_id, "duration": 10},
        ))
        assert session.last.msg_type is MessageType.ERROR
        assert session.last.params["text"] == f"unknown lease id {lease_id}"


class TestMisc:
    def test_ping_pong(self, setup):
        _clock, _space, server, session = setup
        server.handle(session, Message(MessageType.PING, 42))
        assert session.last.msg_type is MessageType.PONG
        assert session.last.request_id == 42

    def test_response_type_from_client_rejected(self, setup):
        _clock, _space, server, session = setup
        server.handle(session, Message(MessageType.PONG, 1))
        assert session.last.msg_type is MessageType.ERROR

    def test_request_counter(self, setup):
        _clock, _space, server, session = setup
        server.handle(session, Message(MessageType.PING, 1))
        server.handle(session, Message(MessageType.PING, 2))
        assert server.requests_handled == 2
