"""Persistent message store: journaling, recovery, compaction."""

import io

import pytest

from repro.core import (
    LindaTuple,
    ManualClock,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core.errors import ProtocolError
from repro.core.persistence import SpaceJournal, recover_space, replay_journal


def t(*fields):
    return LindaTuple(*fields)


def tpl(*patterns):
    return TupleTemplate(*patterns)


@pytest.fixture
def world():
    clock = ManualClock()
    space = TupleSpace(clock=clock)
    sink = io.StringIO()
    journal = SpaceJournal(space, sink, XmlCodec())
    return clock, space, sink, journal


def recovered(sink, clock):
    space = TupleSpace(clock=clock)
    return space, recover_space(space, io.StringIO(sink.getvalue()), XmlCodec())


class TestJournaling:
    def test_writes_are_logged(self, world):
        _clock, space, sink, journal = world
        space.write(t("a", 1))
        space.write(t("b", 2))
        assert journal.entries_logged == 2
        assert sink.getvalue().count('"op":"store"') == 2

    def test_takes_are_logged_as_drops(self, world):
        _clock, space, sink, journal = world
        space.write(t("a", 1))
        space.take_if_exists(tpl("a", int))
        assert journal.drops_logged == 1

    def test_detach_stops_logging(self, world):
        _clock, space, _sink, journal = world
        journal.detach()
        space.write(t("a"))
        assert journal.entries_logged == 0


class TestRecovery:
    def test_live_entries_survive(self, world):
        clock, space, sink, _journal = world
        space.write(t("a", 1))
        space.write(t("b", 2))
        space.take_if_exists(tpl("a", int))
        restored, count = recovered(sink, clock)
        assert count == 1
        assert restored.read_if_exists(tpl("b", int)) == t("b", 2)
        assert restored.read_if_exists(tpl("a", int)) is None

    def test_strings_survive_the_journal(self, world):
        clock, space, sink, _journal = world
        item = t("text", "a\rb", "c\r\nd", "tab\t&<>\"", {"k\r": "\r"})
        space.write(item)
        restored, _count = recovered(sink, clock)
        assert restored.read_if_exists(tpl("text", str, str, str, dict)) == item

    def test_lease_remainder_preserved(self, world):
        clock, space, sink, _journal = world
        space.write(t("a"), lease=100.0)
        clock.advance(60.0)
        restored, count = recovered(sink, clock)
        assert count == 1
        clock.advance(30.0)  # t=90 < 100: still alive
        assert restored.read_if_exists(tpl("a")) is not None
        clock.advance(15.0)  # t=105 > 100: gone
        assert restored.read_if_exists(tpl("a")) is None

    def test_renewed_lease_is_recovered(self, world):
        """Regression: a renewal never reached the journal, so recovery
        dropped an entry that was renewed and still live at the crash."""
        clock, space, sink, _journal = world
        lease = space.write(t("a"), lease=10.0)
        clock.advance(5.0)
        lease.renew(100.0)          # now expires at t=105
        clock.advance(15.0)         # t=20: the original deadline passed
        restored, count = recovered(sink, clock)
        assert count == 1
        clock.advance(80.0)         # t=100 < 105: still alive
        assert restored.read_if_exists(tpl("a")) is not None
        clock.advance(10.0)         # t=110 > 105: gone
        assert restored.read_if_exists(tpl("a")) is None

    def test_expired_entries_not_restored(self, world):
        clock, space, sink, _journal = world
        space.write(t("a"), lease=10.0)
        clock.advance(20.0)
        _restored, count = recovered(sink, clock)
        assert count == 0

    def test_forever_leases_survive(self, world):
        clock, space, sink, _journal = world
        space.write(t("eternal"))
        clock.advance(1e9)
        restored, count = recovered(sink, clock)
        assert count == 1

    def test_entries_recovered_in_timestamp_order(self, world):
        clock, space, sink, _journal = world
        for i in range(5):
            space.write(t("v", i))
        restored, _count = recovered(sink, clock)
        taken = [
            restored.take_if_exists(tpl("v", int))[1] for _ in range(5)
        ]
        assert taken == [0, 1, 2, 3, 4]

    def test_recovered_space_can_journal_again(self, world):
        clock, space, sink, _journal = world
        space.write(t("a"))
        restored, _count = recovered(sink, clock)
        new_sink = io.StringIO()
        SpaceJournal(restored, new_sink, XmlCodec())
        restored.write(t("b"))
        assert '"op":"store"' in new_sink.getvalue()


class TestReplayParsing:
    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="bad JSON"):
            replay_journal(io.StringIO("{nope\n"), XmlCodec())

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            replay_journal(io.StringIO('{"op":"frob","seq":1}\n'), XmlCodec())

    def test_blank_lines_skipped(self, world):
        _clock, space, sink, _journal = world
        space.write(t("a"))
        padded = sink.getvalue() + "\n\n"
        survivors = replay_journal(io.StringIO(padded), XmlCodec())
        assert len(survivors) == 1


class TestSnapshot:
    def test_snapshot_contains_only_live_entries(self, world):
        clock, space, sink, journal = world
        for i in range(10):
            space.write(t("v", i))
        for _ in range(7):
            space.take_if_exists(tpl("v", int))
        compacted = io.StringIO()
        live = journal.snapshot(compacted)
        assert live == 3
        restored = TupleSpace(clock=clock)
        count = recover_space(
            restored, io.StringIO(compacted.getvalue()), XmlCodec()
        )
        assert count == 3
        assert restored.take_if_exists(tpl("v", int)) == t("v", 7)

    def test_snapshot_switches_sink(self, world):
        _clock, space, _sink, journal = world
        compacted = io.StringIO()
        journal.snapshot(compacted)
        space.write(t("after"))
        assert '"op":"store"' in compacted.getvalue()
