"""The tuplespace engine: write/read/take, leases, waiters, notify."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ANY,
    Entry,
    LindaTuple,
    ManualClock,
    TupleSpace,
    TupleTemplate,
)
from repro.core.errors import SpaceError
from repro.core.space import WaitMode


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def space(clock):
    return TupleSpace(clock=clock)


def t(*fields):
    return LindaTuple(*fields)


def tpl(*patterns):
    return TupleTemplate(*patterns)


class TestBasicOperations:
    def test_write_then_read_leaves_item(self, space):
        space.write(t("a", 1))
        assert space.read_if_exists(tpl("a", int)) == t("a", 1)
        assert len(space) == 1

    def test_take_removes_item(self, space):
        space.write(t("a", 1))
        assert space.take_if_exists(tpl("a", int)) == t("a", 1)
        assert len(space) == 0

    def test_miss_returns_none(self, space):
        assert space.read_if_exists(tpl("nothing")) is None
        assert space.take_if_exists(tpl("nothing")) is None
        assert space.stats.misses == 2

    def test_write_none_rejected(self, space):
        with pytest.raises(SpaceError):
            space.write(None)

    def test_timestamp_total_order(self, space):
        """Sec. 2: 'the timestamp on each tuple determines a total order';
        take returns the OLDEST match."""
        space.write(t("job", 1))
        space.write(t("job", 2))
        space.write(t("job", 3))
        taken = [space.take_if_exists(tpl("job", int)) for _ in range(3)]
        assert [item[1] for item in taken] == [1, 2, 3]

    def test_matching_is_associative_not_positional(self, space):
        space.write(t("temp", "cell1", 21.0))
        space.write(t("pressure", "cell1", 3.2))
        found = space.read_if_exists(tpl("pressure", ANY, ANY))
        assert found[0] == "pressure"

    def test_stats_counters(self, space):
        space.write(t("a", 1))
        space.read_if_exists(tpl("a", int))
        space.take_if_exists(tpl("a", int))
        assert space.stats.writes == 1
        assert space.stats.reads == 1
        assert space.stats.takes == 1


class TestLeases:
    def test_expired_entry_invisible(self, space, clock):
        space.write(t("a", 1), lease=10.0)
        clock.advance(11.0)
        assert space.read_if_exists(tpl("a", int)) is None
        assert space.stats.expirations == 1

    def test_entry_visible_before_expiry(self, space, clock):
        space.write(t("a", 1), lease=10.0)
        clock.advance(9.0)
        assert space.read_if_exists(tpl("a", int)) is not None

    def test_lease_cancel_removes_entry(self, space):
        lease = space.write(t("a", 1))
        lease.cancel()
        assert space.read_if_exists(tpl("a", int)) is None

    def test_lease_renewal_extends_life(self, space, clock):
        lease = space.write(t("a", 1), lease=10.0)
        clock.advance(8.0)
        lease.renew(10.0)
        clock.advance(8.0)
        assert space.read_if_exists(tpl("a", int)) is not None

    def test_max_lease_clamped(self, clock):
        space = TupleSpace(clock=clock, max_lease=5.0)
        lease = space.write(t("a", 1), lease=100.0)
        assert lease.duration == 5.0

    def test_sweep_expired(self, space, clock):
        for i in range(5):
            space.write(t("a", i), lease=float(i + 1))
        clock.advance(3.5)
        assert space.sweep_expired() == 3
        assert len(space) == 2

    def test_expired_entries_skipped_during_find(self, space, clock):
        space.write(t("a", 1), lease=1.0)
        space.write(t("a", 2), lease=100.0)
        clock.advance(2.0)
        assert space.take_if_exists(tpl("a", int)) == t("a", 2)


class TestLeaseKeys:
    """``TupleSpace.lease(key)`` is the one place a lease's liveness is
    decided: the live lease while its entry or registration lasts,
    ``None`` afterwards."""

    def test_entry_lease_resolves_by_its_sequence_number(self, space):
        lease = space.write(t("a", 1), lease=10.0)
        assert lease.key == 1
        assert space.lease(lease.key) is lease
        assert space.lease(99) is None

    def test_taken_entry_lease_is_gone(self, space):
        lease = space.write(t("a", 1), lease=10.0)
        space.take_if_exists(tpl("a", int))
        assert space.lease(lease.key) is None

    def test_cancelled_entry_lease_is_gone(self, space):
        lease = space.write(t("a", 1), lease=10.0)
        lease.cancel()
        assert space.lease(lease.key) is None

    def test_expired_entry_lease_is_gone_before_the_sweep(self, space, clock):
        lease = space.write(t("a", 1), lease=10.0)
        clock.advance(10.0)
        assert space.lease(lease.key) is None

    def test_registrations_share_the_entry_counter(self, space, clock):
        written = space.write(t("a", 1))
        registration = space.notify(tpl("a", int), lambda e: None, lease=5.0)
        assert registration.registration_id == registration.lease.key == 2
        assert space.lease(2) is registration.lease
        assert space.write(t("a", 2)).key == 3
        assert space.lease(written.key) is written
        clock.advance(5.0)
        assert space.lease(2) is None

    def test_ended_registrations_are_forgotten(self, space, clock):
        cancelled = space.notify(tpl("a"), lambda e: None)
        space.notify(tpl("b"), lambda e: None, lease=5.0)
        cancelled.cancel()
        assert space.lease(cancelled.registration_id) is None
        clock.advance(5.0)
        space.sweep_expired()
        assert space._registration_keys == {}


class TestWaiters:
    def test_take_waiter_fires_on_matching_write(self, space):
        got = []
        space.register_waiter(tpl("a", int), WaitMode.TAKE, got.append)
        space.write(t("b", 1))
        assert got == []
        space.write(t("a", 7))
        assert got == [t("a", 7)]
        assert len(space) == 1  # only the "b" tuple remains

    def test_read_waiter_does_not_consume(self, space):
        got = []
        space.register_waiter(tpl("a", int), WaitMode.READ, got.append)
        space.write(t("a", 7))
        assert got == [t("a", 7)]
        assert len(space) == 1

    def test_immediate_match_fires_synchronously(self, space):
        space.write(t("a", 7))
        got = []
        waiter = space.register_waiter(tpl("a", int), WaitMode.TAKE, got.append)
        assert got == [t("a", 7)]
        assert not waiter.active

    def test_one_take_waiter_wins(self, space):
        """Sec. 2.1 step 2: 'Just one of them will succeed'."""
        winners = []
        for name in ("first", "second", "third"):
            space.register_waiter(
                tpl("start"), WaitMode.TAKE,
                lambda item, name=name: winners.append(name),
            )
        space.write(t("start"))
        assert winners == ["first"]

    def test_read_waiters_all_see_then_take_consumes(self, space):
        events = []
        space.register_waiter(tpl("x"), WaitMode.READ, lambda i: events.append("r1"))
        space.register_waiter(tpl("x"), WaitMode.READ, lambda i: events.append("r2"))
        space.register_waiter(tpl("x"), WaitMode.TAKE, lambda i: events.append("t"))
        space.write(t("x"))
        assert events == ["r1", "r2", "t"]
        assert len(space) == 0

    def test_cancelled_waiter_not_served(self, space):
        got = []
        waiter = space.register_waiter(tpl("a"), WaitMode.TAKE, got.append)
        waiter.cancel()
        space.write(t("a"))
        assert got == []
        assert len(space) == 1

    def test_pending_waiters_count(self, space):
        space.register_waiter(tpl("a"), WaitMode.TAKE, lambda i: None)
        w = space.register_waiter(tpl("b"), WaitMode.TAKE, lambda i: None)
        w.cancel()
        assert space.pending_waiters == 1


class TestNotify:
    def test_listener_called_on_matching_write(self, space):
        events = []
        space.notify(tpl("alarm", ANY), events.append)
        space.write(t("alarm", "overheat"))
        space.write(t("normal", "ok"))
        assert len(events) == 1
        assert events[0].item == t("alarm", "overheat")

    def test_sequence_numbers_increment(self, space):
        events = []
        space.notify(tpl("a"), events.append)
        space.write(t("a"))
        space.write(t("a"))
        assert [e.sequence for e in events] == [1, 2]

    def test_notify_fires_even_when_taken_by_waiter(self, space):
        events = []
        space.notify(tpl("a"), events.append)
        space.register_waiter(tpl("a"), WaitMode.TAKE, lambda i: None)
        space.write(t("a"))
        assert len(events) == 1

    def test_expired_registration_dropped(self, space, clock):
        events = []
        space.notify(tpl("a"), events.append, lease=5.0)
        clock.advance(6.0)
        space.write(t("a"))
        assert events == []

    def test_cancelled_registration_dropped(self, space):
        events = []
        registration = space.notify(tpl("a"), events.append)
        registration.cancel()
        space.write(t("a"))
        assert events == []

    def test_registration_ids_unique(self, space):
        a = space.notify(tpl("a"), lambda e: None)
        b = space.notify(tpl("b"), lambda e: None)
        assert a.registration_id != b.registration_id

    def test_registration_ids_are_per_space(self, clock):
        """Regression: the id counter was process-global, so the ids a
        run observed depended on every space created before it — two
        identical runs in one process logged different ``registration=``
        ids and broke run-twice trace determinism."""
        first = TupleSpace(clock=clock)
        second = TupleSpace(clock=clock)
        assert first.notify(tpl("a"), lambda e: None).registration_id == 1
        assert second.notify(tpl("a"), lambda e: None).registration_id == 1
        assert first.notify(tpl("b"), lambda e: None).registration_id == 2


class TestIndexedMatching:
    """The index prunes candidates; these pin the cases where pruning
    must fall back to wider buckets to stay exact."""

    def test_wildcard_only_template_scans_arity_bucket(self, space):
        space.write(t("a", 1))
        space.write(t("b", 2, 3))
        assert space.read_if_exists(tpl(ANY, ANY)) == t("a", 1)

    def test_unhashable_stored_field_still_matched_by_value(self, space):
        space.write(t("cfg", [1, 2]))
        assert space.take_if_exists(tpl("cfg", ANY)) == t("cfg", [1, 2])

    def test_unhashable_template_actual_falls_back_to_arity_scan(self, space):
        space.write(t("cfg", [1, 2]))
        space.write(t("cfg", [3]))
        assert space.read_if_exists(tpl("cfg", [3])) == t("cfg", [3])

    def test_bound_later_field_prunes(self, space):
        space.write(t("job", 1, "low"))
        space.write(t("job", 2, "high"))
        assert space.take_if_exists(tpl(ANY, ANY, "high")) == t("job", 2, "high")

    def test_template_subclass_with_custom_matches_full_scans(self, space):
        class EveryOther(TupleTemplate):
            def matches(self, item):
                return isinstance(item, LindaTuple) and item[0] % 2 == 0

        space.write(t(1,))
        space.write(t(2,))
        assert space.read_if_exists(EveryOther(ANY)) == t(2,)

    def test_entry_subclass_matched_through_parent_template(self, space):
        class Base(Entry):
            def __init__(self, kind=None):
                self.kind = kind

        class Derived(Base):
            def __init__(self, kind=None, extra=None):
                super().__init__(kind)
                self.extra = extra

        space.write(Derived("x", 7))
        found = space.read_if_exists(Base(kind="x"))
        assert isinstance(found, Derived) and found.extra == 7

    def test_bare_entry_template_matches_any_entry(self, space):
        class Ping(Entry):
            def __init__(self, n=None):
                self.n = n

        space.write(Ping(1))
        assert space.read_if_exists(Entry()) is not None

    def test_opaque_items_need_opaque_templates(self, space):
        class Anything:
            def matches(self, item):
                return isinstance(item, str)

        space.write("just a string")
        assert space.read_if_exists(tpl(ANY)) is None
        assert space.take_if_exists(Anything()) == "just a string"

    def test_renewed_forever_lease_enters_expiry_tracking(self, space, clock):
        lease = space.write(t("a", 1))     # FOREVER: not heap-tracked
        lease.renew(5.0)                   # now finite: must expire
        clock.advance(6.0)
        assert space.read_if_exists(tpl("a", int)) is None
        assert space.stats.expirations == 1


class TestMixedItems:
    def test_entries_and_tuples_coexist(self, space):
        from tests.core.test_entry import Reading

        space.write(t("a", 1))
        space.write(Reading("t1", 20.0))
        assert space.read_if_exists(Reading(sensor="t1")) is not None
        assert space.read_if_exists(tpl("a", int)) is not None
        assert len(space) == 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_write_take_conservation(values):
    """Property: every written tuple is taken exactly once, in order."""
    space = TupleSpace(clock=ManualClock())
    for v in values:
        space.write(t("v", v))
    taken = []
    while True:
        item = space.take_if_exists(tpl("v", int))
        if item is None:
            break
        taken.append(item[1])
    assert taken == values
    assert len(space) == 0
