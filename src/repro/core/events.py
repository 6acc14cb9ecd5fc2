"""Subscribe/notify support (JavaSpaces ``notify`` analog).

Sec. 2: "primitives to support the subscribe (declare the interest of an
agent on some kind of tuples) and notify (callback to subscriber) paradigm
are usually provided."

A listener registers a template; every subsequently written matching entry
triggers a :class:`RemoteEvent` callback.  Registrations are leased like
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.lease import Lease


@dataclass(frozen=True)
class RemoteEvent:
    """Delivered to a listener when a matching entry is written."""

    registration_id: int
    sequence: int          #: per-registration notification count (1-based)
    space_sequence: int    #: the space-wide timestamp of the written entry
    item: Any = None       #: the written entry (convenience; JavaSpaces
                           #: proper delivers only the notification)


class EventRegistration:
    """One active subscription.

    ``registration_id`` is a key from the owning space's one counter,
    shared with its entries' sequence numbers (so
    :meth:`~repro.core.space.TupleSpace.lease` resolves either kind of
    key to its lease, and keys restart at 1 for every space).  A
    scenario re-run in the same process therefore logs identical ids —
    a process-global counter here would leak state between runs and
    break trace determinism.
    """

    def __init__(
        self,
        template: Any,
        listener: Callable[[RemoteEvent], None],
        lease: Lease,
        registration_id: int = 0,
    ):
        self.registration_id = registration_id
        self.template = template
        self.listener = listener
        self.lease = lease
        self.notifications = 0

    @property
    def active(self) -> bool:
        return not self.lease.expired

    def deliver(self, space_sequence: int, item: Any) -> None:
        self.notifications += 1
        event = RemoteEvent(
            self.registration_id, self.notifications, space_sequence, item
        )
        self.listener(event)

    def cancel(self) -> None:
        self.lease.cancel()

    def __repr__(self) -> str:
        return (
            f"EventRegistration(id={self.registration_id}, "
            f"notifications={self.notifications})"
        )
