"""Candidate-pruning indexes for the tuplespace matching engine.

The space's associative lookup ("the oldest tuple matching this
template") is semantically a scan over every stored item in timestamp
order.  This module keeps that *semantics* while shrinking the set of
records the scan has to touch:

* :class:`ItemIndex` buckets stored records by shape —
  :class:`~repro.core.tuples.LindaTuple` records by arity plus a hash
  index per ``(arity, position, value)``, :class:`~repro.core.entry.Entry`
  records under every ``Entry`` class in their MRO plus a per-field
  equality index, and anything else in an opaque bucket that always
  falls back to the linear scan;
* :class:`TemplateTable` is the reverse direction: it buckets *templates*
  (pending waiters and notify registrations) the same way, so a write
  only tests the templates that could possibly match the written item.

Both indexes prune, they never decide: every candidate still goes
through ``template.matches(item)``, so an index can only lose by
omission.  Two rules keep omissions impossible:

1. A template type is only routed through a shape bucket when its
   ``matches`` is the stock implementation
   (:meth:`TupleTemplate.matches <repro.core.tuples.TupleTemplate.matches>`
   or :meth:`Entry.matches <repro.core.entry.Entry.matches>`), whose
   pruning invariants (arity equality, ``isinstance`` on the template
   class, field equality) are known.  A subclass overriding ``matches``
   degrades to the full scan.
2. Values that cannot be hashed land in per-position/per-field *loose*
   buckets that are merged into every equality lookup at that position,
   so a hash index never hides a record from an equality it might pass.

The hash indexes assume the standard Python contract ``a == b``
implies ``hash(a) == hash(b)`` and that items are not mutated while
stored (entries are value snapshots once written, as in JavaSpaces,
where ``write`` serialises the entry).

All buckets are ``dict[int, record]`` keyed by the space's monotonic
sequence number; records are only ever inserted with a fresh, larger
``seq``, so plain insertion order *is* timestamp order and merging
buckets is an ordered merge, never a sort of the whole space.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator, Optional

from repro.core.entry import Entry
from repro.core.tuples import LindaTuple, TupleTemplate

_EMPTY: dict = {}


def _merged(a: Optional[dict], b: Optional[dict]) -> Iterable:
    """Values of two seq-keyed dicts, in ascending ``seq`` order."""
    if not a:
        return b.values() if b else ()
    if not b:
        return a.values()
    return (record for _seq, record in heapq.merge(a.items(), b.items()))


def _stock_matches(template: Any) -> Optional[str]:
    """Which stock matching discipline ``template`` follows, if any.

    Returns ``"linda"``/``"entry"`` when the template's ``matches`` is
    the unmodified base implementation (so its pruning invariants are
    known), or ``None`` for everything else (full scan).
    """
    cls = type(template)
    if isinstance(template, TupleTemplate):
        if cls.matches is TupleTemplate.matches:
            return "linda"
        return None
    if isinstance(template, Entry):
        if cls.matches is Entry.matches:
            return "entry"
    return None


class ItemIndex:
    """Shape-bucketed index over a space's live records.

    A *record* is any object with ``seq`` (int, unique, monotonic) and
    ``item`` attributes — the space's internal storage slot.  The index
    holds no liveness state of its own: the space adds a record when it
    is stored and discards it when it is dropped, and visibility
    filtering (leases) stays in the space.
    """

    __slots__ = (
        "_linda_arity",
        "_linda_field",
        "_linda_loose",
        "_entry_class",
        "_entry_field",
        "_entry_loose",
        "_opaque",
        "_handles",
    )

    def __init__(self):
        #: arity -> {seq: record}
        self._linda_arity: dict[int, dict] = {}
        #: (arity, position, field value) -> {seq: record}
        self._linda_field: dict[tuple, dict] = {}
        #: (arity, position) -> {seq: record} with unhashable values there
        self._linda_loose: dict[tuple, dict] = {}
        #: Entry subclass -> {seq: record}, one bucket per MRO level
        self._entry_class: dict[type, dict] = {}
        #: (field name, field value) -> {seq: record}
        self._entry_field: dict[tuple, dict] = {}
        #: field name -> {seq: record} with unhashable values for it
        self._entry_loose: dict[str, dict] = {}
        #: neither LindaTuple nor Entry: only the full scan can find these
        self._opaque: dict[int, Any] = {}
        #: seq -> [(bucket, table, key), ...] for O(#buckets) removal
        self._handles: dict[int, list] = {}

    # -- maintenance -------------------------------------------------------

    def add(self, record) -> None:
        """Index one freshly stored record (``record.seq`` must be new
        and larger than every seq indexed before it)."""
        seq = record.seq
        item = record.item
        handles = []
        shaped = False
        if isinstance(item, LindaTuple):
            shaped = True
            arity = item.arity
            self._put(self._linda_arity, arity, seq, record, handles)
            for position, value in enumerate(item.fields):
                try:
                    self._put(
                        self._linda_field, (arity, position, value),
                        seq, record, handles,
                    )
                except TypeError:
                    self._put(
                        self._linda_loose, (arity, position),
                        seq, record, handles,
                    )
        if isinstance(item, Entry):
            shaped = True
            for cls in type(item).__mro__:
                if cls is not object and issubclass(cls, Entry):
                    self._put(self._entry_class, cls, seq, record, handles)
            for name in item._fields:
                value = getattr(item, name)
                if value is None:
                    continue
                try:
                    self._put(
                        self._entry_field, (name, value), seq, record, handles
                    )
                except TypeError:
                    self._put(self._entry_loose, name, seq, record, handles)
        if not shaped:
            self._opaque[seq] = record
            handles.append((self._opaque, None, None))
        self._handles[seq] = handles

    @staticmethod
    def _put(table: dict, key, seq: int, record, handles: list) -> None:
        bucket = table.get(key)
        if bucket is None:
            bucket = table[key] = {}
        bucket[seq] = record
        handles.append((bucket, table, key))

    def discard(self, seq: int) -> None:
        """Forget a record; empty value buckets are reclaimed."""
        for bucket, table, key in self._handles.pop(seq, ()):
            bucket.pop(seq, None)
            if not bucket and table is not None and table.get(key) is bucket:
                del table[key]

    # -- lookup ------------------------------------------------------------

    def candidates(self, template) -> Optional[Iterable]:
        """Records that could match ``template``, oldest first.

        Returns ``None`` when the template's discipline is unknown and
        the caller must scan every record.
        """
        kind = _stock_matches(template)
        if kind == "linda":
            return self._linda_candidates(template)
        if kind == "entry":
            return self._entry_candidates(template)
        return None

    def _linda_candidates(self, template: TupleTemplate) -> Iterable:
        arity = template.arity
        bound = template.first_bound
        if bound is None:
            return self._linda_arity.get(arity, _EMPTY).values()
        position, value = bound
        try:
            exact = self._linda_field.get((arity, position, value))
        except TypeError:
            # Unhashable actual: no equality bucket to consult, but the
            # arity bucket is still a valid (complete) candidate set.
            return self._linda_arity.get(arity, _EMPTY).values()
        return _merged(exact, self._linda_loose.get((arity, position)))

    def _entry_candidates(self, template: Entry) -> Iterable:
        bucket = self._entry_class.get(type(template))
        if not bucket:
            return ()
        # The narrowest field bucket wins: fields come in name order, so
        # the first one may be unselective (every entry's ``firmware``).
        best, best_size = None, len(bucket)
        for name in template._fields:
            value = getattr(template, name)
            if value is None:
                continue
            try:
                exact = self._entry_field.get((name, value))
            except TypeError:
                continue  # unhashable constraint: try the next field
            loose = self._entry_loose.get(name)
            size = (len(exact) if exact else 0) + (len(loose) if loose else 0)
            if size < best_size:
                best, best_size = (exact, loose), size
        if best is None:
            return bucket.values()
        return (record for record in _merged(*best) if record.seq in bucket)

    # -- introspection -----------------------------------------------------

    def bucket_count(self) -> int:
        """Live buckets across every table (the obs gauge)."""
        return (
            len(self._linda_arity)
            + len(self._linda_field)
            + len(self._linda_loose)
            + len(self._entry_class)
            + len(self._entry_field)
            + len(self._entry_loose)
            + (1 if self._opaque else 0)
        )

    def stats(self) -> dict:
        """Bucket population summary (tests and debugging)."""
        return {
            "linda_arity": {k: len(v) for k, v in self._linda_arity.items()},
            "linda_field_buckets": len(self._linda_field),
            "linda_loose_buckets": len(self._linda_loose),
            "entry_class": {
                cls.__name__: len(v) for cls, v in self._entry_class.items()
            },
            "entry_field_buckets": len(self._entry_field),
            "entry_loose_buckets": len(self._entry_loose),
            "opaque": len(self._opaque),
        }

    def __len__(self) -> int:
        return len(self._handles)


class TemplateTable:
    """Registration-ordered table of template holders (waiters or
    notify registrations), bucketed by template shape.

    A *holder* is any object with ``template`` and ``active``
    attributes.  ``candidates_for(item)`` returns, in registration
    order, exactly the holders whose template could match ``item`` —
    holders with an unrecognised template discipline are kept in a
    generic bucket that every item is tested against.
    """

    __slots__ = ("_order", "_by_arity", "_by_class", "_generic", "_handles")

    def __init__(self):
        self._order = 0
        #: arity -> {order: holder} (stock TupleTemplate templates)
        self._by_arity: dict[int, dict] = {}
        #: template class -> {order: holder} (stock Entry templates)
        self._by_class: dict[type, dict] = {}
        #: order -> holder (unknown template disciplines)
        self._generic: dict[int, Any] = {}
        #: id(holder) -> (order, bucket, table, key)
        self._handles: dict[int, tuple] = {}

    def add(self, holder) -> None:
        """Register ``holder``; later calls rank later in delivery."""
        self._order += 1
        order = self._order
        template = holder.template
        kind = _stock_matches(template)
        if kind == "linda":
            table, key = self._by_arity, template.arity
        elif kind == "entry":
            table, key = self._by_class, type(template)
        else:
            self._generic[order] = holder
            self._handles[id(holder)] = (order, self._generic, None, None)
            return
        bucket = table.get(key)
        if bucket is None:
            bucket = table[key] = {}
        bucket[order] = holder
        self._handles[id(holder)] = (order, bucket, table, key)

    def discard(self, holder) -> None:
        """Forget ``holder`` (idempotent)."""
        handle = self._handles.pop(id(holder), None)
        if handle is None:
            return
        order, bucket, table, key = handle
        bucket.pop(order, None)
        if not bucket and table is not None and table.get(key) is bucket:
            del table[key]

    def candidates_for(self, item) -> list:
        """Holders whose template could match ``item``, in registration
        order (a materialised snapshot: delivery callbacks may mutate
        the table without disturbing the iteration)."""
        sources = []
        if self._generic:
            sources.append(self._generic)
        if isinstance(item, LindaTuple):
            bucket = self._by_arity.get(item.arity)
            if bucket:
                sources.append(bucket)
        if isinstance(item, Entry):
            for cls in type(item).__mro__:
                bucket = self._by_class.get(cls)
                if bucket:
                    sources.append(bucket)
        if not sources:
            return []
        if len(sources) == 1:
            return list(sources[0].values())
        return [
            holder
            for _order, holder in heapq.merge(
                *(source.items() for source in sources)
            )
        ]

    def _iter_holders(self) -> Iterator:
        yield from self._generic.values()
        for table in (self._by_arity, self._by_class):
            for bucket in table.values():
                yield from bucket.values()

    def prune(self) -> None:
        """Drop every holder whose ``active`` has gone false."""
        dead = [h for h in self._iter_holders() if not h.active]
        for holder in dead:
            self.discard(holder)

    def count_active(self) -> int:
        return sum(1 for holder in self._iter_holders() if holder.active)

    def bucket_count(self) -> int:
        return (
            len(self._by_arity)
            + len(self._by_class)
            + (1 if self._generic else 0)
        )

    def __len__(self) -> int:
        return len(self._handles)
