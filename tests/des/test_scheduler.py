"""The heap pending-event queue: ordering, cancellation, and a sorted oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.event import Event
from repro.des.random_streams import StreamRegistry
from repro.des.scheduler import HeapScheduler


def make_event(time, seq, priority=0):
    return Event(time, seq, lambda: None, (), priority)


def pop(queue):
    """The event behind the earliest live entry."""
    return queue.pop_entry()[3]


@pytest.mark.parametrize("factory", [HeapScheduler], ids=["heap"])
class TestBasics:
    def test_pop_returns_earliest(self, factory):
        queue = factory()
        queue.push(make_event(5.0, 1))
        queue.push(make_event(1.0, 2))
        queue.push(make_event(3.0, 3))
        assert pop(queue).time == 1.0
        assert pop(queue).time == 3.0
        assert pop(queue).time == 5.0

    def test_len_counts_pending(self, factory):
        queue = factory()
        assert len(queue) == 0
        queue.push(make_event(1.0, 1))
        queue.push(make_event(2.0, 2))
        assert len(queue) == 2
        queue.pop_entry()
        assert len(queue) == 1

    def test_pop_empty_returns_none(self, factory):
        # The run loop stops on ``None``.
        assert factory().pop_entry() is None

    def test_cancelled_events_are_skipped(self, factory):
        queue = factory()
        first = make_event(1.0, 1)
        second = make_event(2.0, 2)
        queue.push(first)
        queue.push(second)
        first.cancel()
        queue.notify_cancelled()
        assert pop(queue) is second

    def test_fifo_for_equal_times(self, factory):
        queue = factory()
        events = [make_event(1.0, seq) for seq in range(1, 6)]
        for event in events:
            queue.push(event)
        assert [pop(queue).seq for _ in events] == [1, 2, 3, 4, 5]

    def test_priority_orders_within_time(self, factory):
        queue = factory()
        queue.push(make_event(1.0, 1, priority=5))
        queue.push(make_event(1.0, 2, priority=-5))
        assert pop(queue).priority == -5


def test_callback_entries_share_the_event_order():
    """Fire-and-forget ``(time, priority, seq, fn, args)`` entries and
    Event entries interleave in one ``(time, priority, seq)`` order."""
    queue = HeapScheduler()
    queue.push(make_event(2.0, 1))
    queue.push_entry((1.0, 0, 2, print, ()))
    queue.push_entry((2.0, -1, 3, print, ()))
    assert [queue.pop_entry()[:3] for _ in range(3)] == [
        (1.0, 0, 2), (2.0, -1, 3), (2.0, 0, 1),
    ]
    assert queue.pop_entry() is None


def test_randomized_push_cancel_pop_matches_sorted_oracle():
    """Under a mixed push/cancel/pop workload every pop is the smallest
    live ``sort_key`` (seeded via the deterministic stream registry, like
    every other stochastic component)."""
    registry = StreamRegistry(master_seed=0x5EED)
    for case in range(6):
        rng = registry.stream(f"scheduler-parity-{case}")
        queue = HeapScheduler()
        live: dict[tuple, Event] = {}
        seq = 0
        pops = 0
        for _ in range(800):
            action = rng.random()
            if action < 0.55 or not live:
                seq += 1
                event = make_event(
                    rng.uniform(0.0, 40.0), seq, rng.choice((-1, 0, 1))
                )
                queue.push(event)
                live[event.sort_key] = event
            elif action < 0.70:
                key = rng.choice(sorted(live))
                assert live.pop(key).cancel()
                queue.notify_cancelled()
            else:
                event = pop(queue)
                assert event.sort_key == min(live)
                del live[event.sort_key]
                pops += 1
        assert pops > 0
        assert len(queue) == len(live)
        drained = [pop(queue).sort_key for _ in range(len(live))]
        assert drained == sorted(live)
        assert queue.pop_entry() is None


def test_out_of_order_inserts_pop_first():
    """Pushing events earlier than the last popped time — legal when the
    queue is driven standalone — still pops in sorted order."""
    registry = StreamRegistry(master_seed=7)
    rng = registry.stream("scheduler-rewind")
    queue = HeapScheduler()
    live = []
    for seq in range(120):
        event = make_event(rng.uniform(0.0, 60.0), seq)
        queue.push(event)
        live.append(event.sort_key)
    live.sort()
    assert [pop(queue).sort_key for _ in range(60)] == live[:60]
    del live[:60]
    # Out-of-order inserts: strictly before every remaining event.
    for seq in range(1000, 1020):
        event = make_event(rng.uniform(0.0, 0.01), seq)
        queue.push(event)
        live.append(event.sort_key)
    order = [pop(queue).sort_key for _ in range(len(live))]
    assert order == sorted(live)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_heap_order_is_sorted_order(times):
    heap = HeapScheduler()
    for seq, t in enumerate(times):
        heap.push(make_event(t, seq))
    heap_order = [(e.time, e.seq) for e in (pop(heap) for _ in times)]
    assert heap_order == sorted((t, seq) for seq, t in enumerate(times))
