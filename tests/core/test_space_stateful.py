"""Stateful property testing of the space engine against a reference model.

Hypothesis drives random interleavings of write / read / take / lease
expiry against :class:`TupleSpace` while a plain-Python model tracks
what the visible contents must be.  Catches ordering, visibility and
lease-accounting bugs that example-based tests miss.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core import LindaTuple, ManualClock, TupleSpace, TupleTemplate

KEYS = ["a", "b", "c"]


class _ModelEntry:
    __slots__ = ("order", "key", "value", "expires_at")

    def __init__(self, order, key, value, expires_at):
        self.order = order
        self.key = key
        self.value = value
        self.expires_at = expires_at


class SpaceMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.clock = ManualClock()
        self.space = TupleSpace(clock=self.clock)
        self.visible: list[_ModelEntry] = []
        self.counter = 0

    # -- helpers -----------------------------------------------------------

    def _now_visible(self):
        now = self.clock.now()
        self.visible = [e for e in self.visible if e.expires_at > now]
        return sorted(self.visible, key=lambda e: e.order)

    def _oldest(self, key):
        for entry in self._now_visible():
            if entry.key == key:
                return entry
        return None

    # -- rules ---------------------------------------------------------------

    @rule(key=st.sampled_from(KEYS),
          lease=st.one_of(st.none(), st.floats(min_value=1.0, max_value=50.0)))
    def write(self, key, lease):
        self.counter += 1
        self.space.write(LindaTuple(key, self.counter), lease=lease)
        expires = float("inf") if lease is None else self.clock.now() + lease
        self.visible.append(
            _ModelEntry(self.counter, key, self.counter, expires)
        )

    @rule(key=st.sampled_from(KEYS))
    def take(self, key):
        expected = self._oldest(key)
        got = self.space.take_if_exists(TupleTemplate(key, int))
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got[1] == expected.value
            self.visible.remove(expected)

    @rule(key=st.sampled_from(KEYS))
    def read(self, key):
        expected = self._oldest(key)
        got = self.space.read_if_exists(TupleTemplate(key, int))
        if expected is None:
            assert got is None
        else:
            assert got is not None and got[1] == expected.value

    @rule(delta=st.floats(min_value=0.5, max_value=30.0))
    def advance_clock(self, delta):
        self.clock.advance(delta)

    @rule()
    def sweep(self):
        self.space.sweep_expired()

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def visible_count_matches(self):
        if getattr(self, "space", None) is None:
            return
        assert len(self.space) == len(self._now_visible())


TestSpaceStateful = SpaceMachine.TestCase
TestSpaceStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)
