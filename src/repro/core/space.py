"""The tuplespace engine.

Sec. 2: "a tuplespace is simply an unstructured collection of tuples" with
agents "writing, reading and removing tuples" addressed associatively, and
"the timestamp on each tuple determines a total order relation".

The engine is single-threaded and clock-driven: leases expire lazily
against the injected :class:`~repro.core.clock.Clock`, and blocking
semantics are expressed through *waiters* (callbacks registered for the
next matching write), so the same engine serves the threaded socket
server, the discrete-event co-simulation and plain unit tests.

Stored items can be :class:`~repro.core.tuples.LindaTuple`,
:class:`~repro.core.entry.Entry`, or anything else; templates are any
object with a ``matches(item) -> bool`` method.

Matching is indexed (:mod:`repro.core.index`): records are bucketed by
shape so ``read``/``take``/waiter delivery touch only the candidates a
template could match, instead of scanning the whole space, and lease
expiry runs off a min-heap of deadlines instead of periodic O(n)
sweeps.  The index prunes but never decides — every candidate still
passes through ``template.matches`` — and candidate order is the
timestamp order, so the oldest-match ("total order") semantics are
exactly those of the original linear scan.  See ``docs/tuplespace.md``.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections import OrderedDict
from functools import partial
from typing import Any, Callable, Optional

from repro.core.clock import Clock, SystemClock
from repro.core.errors import SpaceError
from repro.core.events import EventRegistration, RemoteEvent
from repro.core.index import ItemIndex, TemplateTable
from repro.core.lease import FOREVER, Lease, LeaseManager


class WaitMode(enum.Enum):
    READ = "read"
    TAKE = "take"


class _Record:
    """Internal storage slot for one item."""

    __slots__ = ("seq", "item", "lease", "op_key")

    def __init__(self, seq: int, item: Any, lease: Lease):
        self.seq = seq
        self.item = item
        self.lease = lease
        #: idempotency key of the write that created this record, if any
        self.op_key = None


class Waiter:
    """A pending blocking read/take."""

    __slots__ = ("template", "mode", "callback", "active")

    def __init__(self, template, mode: WaitMode, callback):
        self.template = template
        self.mode = mode
        self.callback = callback
        self.active = True

    def cancel(self) -> None:
        self.active = False


class SpaceStats:
    """Operation counters of one space."""

    def __init__(self):
        self.writes = 0
        self.reads = 0
        self.takes = 0
        self.misses = 0
        self.expirations = 0
        self.notifications = 0

    def as_dict(self) -> dict:
        return {
            "writes": self.writes,
            "reads": self.reads,
            "takes": self.takes,
            "misses": self.misses,
            "expirations": self.expirations,
            "notifications": self.notifications,
        }


class TupleSpace:
    """Associatively addressed, leased, observable item store."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        max_lease: float = FOREVER,
        default_lease: float = FOREVER,
        name: str = "space",
        obs=None,
    ):
        self.clock = clock if clock is not None else SystemClock()
        self.name = name
        self.leases = LeaseManager(self.clock, max_lease, default_lease)
        self._records: dict[int, _Record] = {}
        #: Space keys: one counter numbers both records (their ``seq``)
        #: and notify registrations, so a key names exactly one lease.
        self._seq = 0
        self._index = ItemIndex()
        #: (expires_at, seq) deadlines; lazily invalidated on renew/cancel
        self._expiry_heap: list[tuple[float, int]] = []
        self._waiters = TemplateTable()
        self._registrations = TemplateTable()
        #: ``registration_id -> registration`` until its lease ends
        self._registration_keys: dict[int, EventRegistration] = {}
        #: Completed idempotent writes: ``op_key -> granted lease``.  The
        #: entry outlives its record (a retried write after the tuple was
        #: taken or expired must NOT resurrect it), capped FIFO so the
        #: table cannot grow without bound.
        self._op_keys: OrderedDict[str, Lease] = OrderedDict()
        self.op_key_retention = 4096
        self.duplicate_writes = 0
        self.stats = SpaceStats()
        #: storage observers (e.g. the persistence journal); each gets
        #: ``item_stored(seq, item, expires_at)`` / ``item_dropped(seq)``.
        self.observers: list = []
        # -- observability (nullable; stamped with this space's clock)
        self.obs = obs
        if obs is not None:
            obs.bind_clock(self.clock.now)
            metrics = obs.metrics
            for op in self.stats.as_dict():
                metrics.attach(f"{name}.{op}", partial(getattr, self.stats, op))
            self._obs_items = metrics.gauge(f"{name}.items")
            self._obs_buckets = metrics.gauge(f"{name}.index_buckets")
            self._obs_heap = metrics.gauge(f"{name}.expiry_heap")

    def _trace_op(self, event: str, **fields) -> None:
        """Trace one space operation (no-op when uninstrumented)."""
        if self.obs is not None:
            self.obs.tracer.event("space", event, space=self.name, **fields)

    def _obs_depth(self) -> None:
        if self.obs is not None:
            self._obs_items.set(len(self))
            self._obs_buckets.set(self._index.bucket_count())
            self._obs_heap.set(len(self._expiry_heap))

    # -- write -------------------------------------------------------------

    def write(
        self,
        item: Any,
        lease: Optional[float] = None,
        op_key: Optional[str] = None,
    ) -> Lease:
        """Store ``item`` under a lease; returns the granted lease.

        ``op_key`` makes the write idempotent: a second write carrying
        the same key is a duplicate delivery (a client retry after a
        lost acknowledgement) and returns the original grant without
        storing anything — even if the original tuple has meanwhile been
        taken or expired, because the operation it retries *did* happen.
        """
        if item is None:
            raise SpaceError("cannot write None to a space")
        if op_key is not None:
            existing = self._op_keys.get(op_key)
            if existing is not None:
                self.duplicate_writes += 1
                if self.obs is not None:
                    self.obs.tracer.event(
                        "space", "write-dup", space=self.name, op_key=op_key
                    )
                return existing
        self._seq += 1
        record = _Record(self._seq, item, self._grant(lease))
        if op_key is not None:
            record.op_key = op_key
            self._op_keys[op_key] = record.lease
            while len(self._op_keys) > self.op_key_retention:
                self._op_keys.popitem(last=False)
        self._records[record.seq] = record
        self._index.add(record)
        expires_at = record.lease.expires_at
        if not math.isinf(expires_at):
            heapq.heappush(self._expiry_heap, (expires_at, record.seq))
        self.stats.writes += 1
        self._trace_op(
            "write", seq=record.seq,
            lease=record.lease.duration if record.lease.duration != FOREVER else None,
        )
        self._notify_stored(record)
        # Notifications fire for every write, even when a blocked take
        # consumes the item immediately (JavaSpaces semantics).
        self._serve_waiters(record)
        self._fire_notifications(record)
        self._obs_depth()
        return record.lease

    def _notify_stored(self, record: _Record) -> None:
        for observer in self.observers:
            observer.item_stored(
                record.seq, record.item, record.lease.expires_at
            )

    # -- non-blocking read/take ------------------------------------------------

    def read_if_exists(self, template) -> Optional[Any]:
        """The oldest matching item, or ``None`` (item stays in the space)."""
        record = self._find(template)
        if record is None:
            self.stats.misses += 1
            self._trace_op("miss", op="read")
            return None
        self.stats.reads += 1
        self._trace_op("read", seq=record.seq)
        return record.item

    def take_if_exists(self, template) -> Optional[Any]:
        """Remove and return the oldest matching item, or ``None``."""
        record = self._find(template)
        if record is None:
            self.stats.misses += 1
            self._trace_op("miss", op="take")
            return None
        self._drop(record)
        self.stats.takes += 1
        self._trace_op("take", seq=record.seq)
        self._obs_depth()
        return record.item

    # -- blocking support ---------------------------------------------------------

    def register_waiter(
        self,
        template,
        mode: WaitMode,
        callback: Callable[[Any], None],
    ) -> Waiter:
        """Register a callback for the next matching live item.

        If a match already exists the callback fires immediately (and a
        take consumes the item).  The returned waiter can be cancelled,
        which is how timeouts are implemented by the callers.
        """
        record = self._find(template)
        waiter = Waiter(template, mode, callback)
        if record is not None:
            waiter.active = False
            if mode is WaitMode.TAKE:
                self._drop(record)
                self.stats.takes += 1
                self._trace_op("take", seq=record.seq, waited=False)
                self._obs_depth()
            else:
                self.stats.reads += 1
                self._trace_op("read", seq=record.seq, waited=False)
            callback(record.item)
            return waiter
        self._waiters.add(waiter)
        return waiter

    # -- notify ------------------------------------------------------------------

    def notify(
        self,
        template,
        listener: Callable[[RemoteEvent], None],
        lease: Optional[float] = None,
    ) -> EventRegistration:
        """Subscribe ``listener`` to future writes matching ``template``."""
        self._seq += 1
        registration = EventRegistration(
            template, listener, self._grant(lease), registration_id=self._seq,
        )
        self._registrations.add(registration)
        self._registration_keys[self._seq] = registration
        return registration

    # -- leases ------------------------------------------------------------------

    def lease(self, key: int) -> Optional[Lease]:
        """The live lease granted under space key ``key``, or ``None``.

        The key is an entry's sequence number or a registration id.
        ``None`` once the entry was taken, cancelled or expired, or the
        registration ended: this space is the one owner of lease
        lifetime, so a front end holds no lease table.
        """
        holder = self._records.get(key) or self._registration_keys.get(key)
        if holder is None or holder.lease.expired:
            return None
        return holder.lease

    def _grant(self, duration: Optional[float]) -> Lease:
        """Grant the lease for the item or registration keyed ``_seq``."""
        lease = self.leases.grant(
            duration,
            on_cancel=self._lease_cancelled,
            on_renew=self._reschedule_expiry,
        )
        lease.key = self._seq
        return lease

    def _lease_cancelled(self, lease: Lease) -> None:
        record = self._records.get(lease.key)
        if record is not None:
            self._drop(record)
            return
        registration = self._registration_keys.get(lease.key)
        if registration is not None:
            self._end_registration(registration)

    def _end_registration(self, registration: EventRegistration) -> None:
        self._registration_keys.pop(registration.registration_id, None)
        self._registrations.discard(registration)

    # -- maintenance -----------------------------------------------------------------

    def sweep_expired(self) -> int:
        """Drop every lease-expired record; returns how many were dropped."""
        dropped = self._expire_due()
        self._waiters.prune()
        for registration in list(self._registration_keys.values()):
            if not registration.active:
                self._end_registration(registration)
        if dropped:
            self._obs_depth()
        return dropped

    def __len__(self) -> int:
        """Number of live items."""
        return sum(1 for r in self._records.values() if not r.lease.expired)

    @property
    def pending_waiters(self) -> int:
        return self._waiters.count_active()

    # -- internals ----------------------------------------------------------------

    def _find(self, template) -> Optional[_Record]:
        """Oldest live matching record (total order by timestamp)."""
        self._expire_due()
        candidates = self._index.candidates(template)
        if candidates is None:
            # Unknown template discipline: only the full scan is safe.
            candidates = self._records.values()
        for record in candidates:
            if not record.lease.expired and template.matches(record.item):
                return record
        return None

    def _expire_due(self) -> int:
        """Drop every record whose lease deadline has passed.

        Deadlines sit in a min-heap of ``(expires_at, seq)``; renewals
        push a fresh entry and leave the stale one to be recognised and
        skipped when popped (lazy invalidation), so expiry costs
        O(log n) per record instead of an O(n) sweep.
        """
        heap = self._expiry_heap
        if not heap:
            return 0
        now = self.clock.now()
        dropped = 0
        while heap and heap[0][0] <= now:
            _when, seq = heapq.heappop(heap)
            record = self._records.get(seq)
            if record is None:
                continue  # already dropped (taken or cancelled)
            if not record.lease.expired:
                continue  # renewed: the renewal pushed the live deadline
            self._drop(record)
            dropped += 1
            self.stats.expirations += 1
            self._trace_op("expire", seq=seq)
        return dropped

    def _reschedule_expiry(self, lease: Lease) -> None:
        """Lease renewal hook: enter the new deadline into the heap, and
        re-announce the record to the observers as a store with it, so
        a journal recovers the renewed lease, not the original one."""
        record = self._records.get(lease.key)
        if record is None:
            return
        if not math.isinf(lease.expires_at):
            heapq.heappush(self._expiry_heap, (lease.expires_at, lease.key))
        self._notify_stored(record)

    def _drop(self, record: _Record) -> None:
        existed = self._records.pop(record.seq, None)
        if existed is not None:
            self._index.discard(record.seq)
            for observer in self.observers:
                observer.item_dropped(record.seq)
            self._compact_expiry_heap()

    def _compact_expiry_heap(self) -> None:
        """Rebuild the deadline heap once stale entries dominate it.

        A taken or cancelled record leaves its ``(expires_at, seq)``
        entry behind until the deadline pops, so under long leases the
        heap would grow with every op.  Past twice the live records
        (and a floor of 64), rebuild it in place from the records'
        current deadlines: each rebuild discards at least half the
        heap, which keeps the cost amortised O(1) per push.  Renewed
        records contribute their one live deadline, not their stale
        ones.  In place, because :meth:`_expire_due` holds the list.
        """
        heap = self._expiry_heap
        if len(heap) <= max(64, 2 * len(self._records)):
            return
        heap[:] = [
            (record.lease.expires_at, seq)
            for seq, record in self._records.items()
            if not math.isinf(record.lease.expires_at)
        ]
        heapq.heapify(heap)

    def _serve_waiters(self, record: _Record) -> None:
        """Deliver to matching waiters in registration order.

        Read waiters all observe the item; the first matching take waiter
        consumes it and stops delivery.
        """
        for waiter in self._waiters.candidates_for(record.item):
            if not waiter.active:
                self._waiters.discard(waiter)
                continue
            if not waiter.template.matches(record.item):
                continue
            waiter.active = False
            self._waiters.discard(waiter)
            if waiter.mode is WaitMode.READ:
                self.stats.reads += 1
                self._trace_op("read", seq=record.seq, waited=True)
                waiter.callback(record.item)
                continue
            self._drop(record)
            self.stats.takes += 1
            self._trace_op("take", seq=record.seq, waited=True)
            self._obs_depth()
            waiter.callback(record.item)
            return

    def _fire_notifications(self, record: _Record) -> None:
        for registration in self._registrations.candidates_for(record.item):
            if not registration.active:
                self._end_registration(registration)
                continue
            if registration.template.matches(record.item):
                registration.deliver(record.seq, record.item)
                self.stats.notifications += 1
                self._trace_op(
                    "notify",
                    seq=record.seq,
                    registration=registration.registration_id,
                )

    def __repr__(self) -> str:
        return f"TupleSpace({self.name!r}, items={len(self)})"
