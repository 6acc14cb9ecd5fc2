"""The pending-event queue.

:class:`HeapScheduler` is a binary heap (``heapq``) with O(log n)
insert/pop.  It is the only queue: the TpWIRE models keep the pending
set shallow (a handful of entries), where a C-level heap sift beats any
bucketed structure — see ``docs/performance.md``.

Entry layout
------------

The queue stores *entries*: plain tuples that compare correctly under
Python's C-level tuple comparison, so no queue operation ever calls back
into ``Event.__lt__``:

* ``(time, priority, seq, event)`` — an :class:`~repro.des.event.Event`
  scheduled through :meth:`Simulator.at`/``after`` (cancellable handle);
* ``(time, priority, seq, fn, args)`` — a fire-and-forget callback
  scheduled through :meth:`Simulator.call_at`/``call_after`` (no Event
  object is allocated at all).

``seq`` is unique per simulator, so a comparison never reaches element 3
and the two layouts can share one queue.  The queue discriminates on
``len(entry)`` when it needs the event (cancellation is lazy: the event
stays queued and is skipped on pop).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from repro.des.event import Event, EventState

_CANCELLED = EventState.CANCELLED


class HeapScheduler:
    """Binary-heap pending-event set.

    Heap items are the C-comparable entry tuples described in the module
    docstring, so every sift runs without a single Python-level
    comparison call — the property that took the heap from 382k to the
    megahertz range on the churn benchmark.
    """

    def __init__(self):
        self._heap: list[tuple] = []
        self._size = 0  # number of non-cancelled events

    def __len__(self) -> int:
        return self._size

    def push(self, event: Event) -> None:
        heappush(self._heap, event.sort_key + (event,))
        self._size += 1

    def push_entry(self, entry: tuple) -> None:
        """Queue a pre-built entry (the simulator's fast path)."""
        heappush(self._heap, entry)
        self._size += 1

    def notify_cancelled(self) -> None:
        """Account for an event cancelled while queued."""
        self._size -= 1

    def pop_entry(self) -> Optional[tuple]:
        """Remove and return the earliest live entry, or ``None``."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if len(entry) == 4 and entry[3].state is _CANCELLED:
                continue
            self._size -= 1
            return entry
        return None
