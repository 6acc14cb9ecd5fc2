"""Shared resources for processes: a FIFO lock and an unbounded store.

The TpWIRE master serialises its compound operations on a capacity-1
:class:`Resource`; the co-simulated server host queues wire frames in
:class:`Store` instances, one process draining each.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.des.errors import SimulationError
from repro.des.process import Waitable


class Request(Waitable):
    """Waitable granted when the resource has a free slot."""

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource


class Resource:
    """A resource with ``capacity`` slots and a FIFO queue."""

    def __init__(self, sim, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: list[Request] = []
        self._waiting: deque[Request] = deque()

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        """Ask for a slot; yield the returned waitable to acquire."""
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, req: Request) -> None:
        """Return a previously-granted slot."""
        try:
            self._users.remove(req)
        except ValueError:
            raise SimulationError("release of a request that holds no slot")
        if self._waiting:
            nxt = self._waiting.popleft()
            self._users.append(nxt)
            nxt.succeed(nxt)


class StoreGet(Waitable):
    pass


class Store:
    """Unbounded FIFO buffer of items; getters wait for the oldest item."""

    def __init__(self, sim):
        self.sim = sim
        self._items: deque = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``, handing it to the oldest waiting getter."""
        self._items.append(item)
        self._serve_getters()

    def get(self) -> StoreGet:
        """Waitable that succeeds with the oldest item."""
        op = StoreGet(self.sim)
        self._getters.append(op)
        self._serve_getters()
        return op

    def _serve_getters(self) -> None:
        while self._getters and self._items:
            getter = self._getters.popleft()
            if getter.triggered:  # cancelled externally
                continue
            getter.succeed(self._items.popleft())
