"""Candidate-pruning indexes for the tuplespace matching engine.

The space's associative lookup ("the oldest tuple matching this
template") is semantically a scan over every stored item in timestamp
order.  This module keeps that *semantics* while shrinking the set of
records the scan has to touch:

* :class:`ItemIndex` buckets stored records by shape —
  :class:`~repro.core.tuples.LindaTuple` records by arity plus a hash
  index per ``(arity, position)`` keyed by field value,
  :class:`~repro.core.entry.Entry` records under every ``Entry`` class
  in their MRO plus a per-field-name index keyed by field value, and
  anything else in an opaque bucket that always falls back to the
  linear scan;
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

Arity, class, loose and opaque buckets are ``dict[int, record]`` keyed
by the space's monotonic sequence number; records are only ever
inserted with a fresh, larger ``seq``, so plain insertion order *is*
timestamp order and merging buckets is an ordered merge, never a sort
of the whole space.  A *value bucket* (the records holding one field
value) is the record itself while it holds one, and such a dict from
the second record on: most stored values are unique keys, and a
one-record dict per value would cost more than the record.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator, Optional

from repro.core.entry import Entry
from repro.core.tuples import LindaTuple, TupleTemplate

_EMPTY: dict = {}


def _merged(a, b: Optional[dict]) -> Iterable:
    """Records of a value bucket ``a`` and a seq-keyed dict ``b``, in
    ascending ``seq`` order."""
    if a is not None and type(a) is not dict:
        a = {a.seq: a}  # a singleton value bucket
    if not a:
        return b.values() if b else ()
    if not b:
        return a.values()
    return (record for _seq, record in heapq.merge(a.items(), b.items()))


def _put(table: dict, key, record) -> None:
    """Add ``record`` to the seq-keyed bucket ``table[key]``."""
    bucket = table.get(key)
    if bucket is None:
        table[key] = {record.seq: record}
    else:
        bucket[record.seq] = record


def _pop(table: dict, key, seq: int) -> None:
    """Remove ``seq`` from ``table[key]``; an emptied bucket goes."""
    bucket = table[key]
    del bucket[seq]
    if not bucket:
        del table[key]


def _file(table: dict, key, value, record) -> None:
    """File ``record`` under ``table[key][value]``.

    A value held by one record maps to the record itself; a second
    record turns it into a seq-keyed dict.  Raises ``TypeError``, having
    changed nothing, when ``value`` is unhashable.
    """
    values = table.get(key)
    if values is None:
        table[key] = {value: record}
        return
    bucket = values.get(value)
    if bucket is None:
        values[value] = record
    elif type(bucket) is dict:
        bucket[record.seq] = record
    else:
        values[value] = {bucket.seq: bucket, record.seq: record}


def _unfile(table: dict, key, value, seq: int) -> bool:
    """Undo :func:`_file`; ``False`` when ``value`` was not filed there
    (it was unhashable, so its record sits in a loose bucket)."""
    values = table.get(key)
    if values is None:
        return False
    try:
        bucket = values[value]
    except TypeError:
        return False
    if type(bucket) is dict:
        del bucket[seq]
        if bucket:
            return True
    del values[value]
    if not values:
        del table[key]
    return True


def _value_buckets(table: dict) -> int:
    """Value buckets across a ``{key: {value: bucket}}`` table."""
    return sum(map(len, table.values()))


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


def _entry_classes(item: Entry) -> Iterator[type]:
    """The ``Entry`` classes in ``item``'s MRO (its class buckets)."""
    for cls in type(item).__mro__:
        if cls is not object and issubclass(cls, Entry):
            yield cls


class ItemIndex:
    """Shape-bucketed index over a space's live records.

    A *record* is any object with ``seq`` (int, unique, monotonic) and
    ``item`` attributes and a writable ``filed`` slot — the space's
    internal storage slot.  For an :class:`Entry` item, :meth:`add`
    stores in ``filed`` the tuple of field values it filed the record
    under, and :meth:`discard` finds the buckets again from that tuple
    (a :class:`LindaTuple` is immutable, so its own ``fields`` serve).
    An entry mutated after it was stored thus still leaves every bucket
    it was filed in.  The index holds no liveness state of its own: the
    space adds a record when it is stored and discards it when it is
    dropped, and visibility filtering (leases) stays in the space.
    """

    __slots__ = (
        "_linda_arity",
        "_linda_field",
        "_linda_loose",
        "_entry_class",
        "_entry_field",
        "_entry_loose",
        "_opaque",
        "_count",
    )

    def __init__(self):
        #: arity -> {seq: record}
        self._linda_arity: dict[int, dict] = {}
        #: (arity, position) -> {field value: value bucket}
        self._linda_field: dict[tuple, dict] = {}
        #: (arity, position) -> {seq: record} with unhashable values there
        self._linda_loose: dict[tuple, dict] = {}
        #: Entry subclass -> {seq: record}, one bucket per MRO level
        self._entry_class: dict[type, dict] = {}
        #: field name -> {field value: value bucket}
        self._entry_field: dict[str, dict] = {}
        #: field name -> {seq: record} with unhashable values for it
        self._entry_loose: dict[str, dict] = {}
        #: neither LindaTuple nor Entry: only the full scan can find these
        self._opaque: dict[int, Any] = {}
        self._count = 0

    # -- maintenance -------------------------------------------------------

    def add(self, record) -> None:
        """Index one freshly stored record (``record.seq`` must be new
        and larger than every seq indexed before it)."""
        item = record.item
        shaped = False
        if isinstance(item, LindaTuple):
            shaped = True
            fields = item.fields
            arity = len(fields)
            _put(self._linda_arity, arity, record)
            for position, value in enumerate(fields):
                try:
                    _file(self._linda_field, (arity, position), value, record)
                except TypeError:
                    _put(self._linda_loose, (arity, position), record)
        if isinstance(item, Entry):
            shaped = True
            for cls in _entry_classes(item):
                _put(self._entry_class, cls, record)
            names = item._fields
            filed = record.filed = tuple([getattr(item, name) for name in names])
            for name, value in zip(names, filed):
                if value is None:
                    continue
                try:
                    _file(self._entry_field, name, value, record)
                except TypeError:
                    _put(self._entry_loose, name, record)
        if not shaped:
            self._opaque[record.seq] = record
        self._count += 1

    def discard(self, record) -> None:
        """Forget a record added before; emptied buckets are reclaimed."""
        seq = record.seq
        item = record.item
        shaped = False
        if isinstance(item, LindaTuple):
            shaped = True
            fields = item.fields
            arity = len(fields)
            _pop(self._linda_arity, arity, seq)
            for position, value in enumerate(fields):
                if not _unfile(self._linda_field, (arity, position), value, seq):
                    _pop(self._linda_loose, (arity, position), seq)
        if isinstance(item, Entry):
            shaped = True
            for cls in _entry_classes(item):
                _pop(self._entry_class, cls, seq)
            for name, value in zip(item._fields, record.filed):
                if value is None:
                    continue
                if not _unfile(self._entry_field, name, value, seq):
                    _pop(self._entry_loose, name, seq)
        if not shaped:
            del self._opaque[seq]
        self._count -= 1

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
            exact = self._linda_field.get((arity, position), _EMPTY).get(value)
        except TypeError:
            # Unhashable actual: no equality bucket to consult, but the
            # arity bucket is still a valid (complete) candidate set.
            return self._linda_arity.get(arity, _EMPTY).values()
        loose = self._linda_loose.get((arity, position))
        if not loose and exact is not None and type(exact) is not dict:
            return (exact,)
        return _merged(exact, loose)

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
                exact = self._entry_field.get(name, _EMPTY).get(value)
            except TypeError:
                continue  # unhashable constraint: try the next field
            loose = self._entry_loose.get(name)
            size = len(loose) if loose else 0
            if exact is not None:
                size += len(exact) if type(exact) is dict else 1
            if size < best_size:
                best, best_size = (exact, loose), size
        if best is None:
            return bucket.values()
        exact, loose = best
        if not loose and exact is not None and type(exact) is not dict:
            return (exact,) if exact.seq in bucket else ()
        return (record for record in _merged(exact, loose) if record.seq in bucket)

    # -- introspection -----------------------------------------------------

    def bucket_count(self) -> int:
        """Live buckets across every table (the obs gauge); each field
        value held by a record counts as one bucket."""
        return (
            len(self._linda_arity)
            + _value_buckets(self._linda_field)
            + len(self._linda_loose)
            + len(self._entry_class)
            + _value_buckets(self._entry_field)
            + len(self._entry_loose)
            + (1 if self._opaque else 0)
        )

    def stats(self) -> dict:
        """Bucket population summary (tests and debugging)."""
        return {
            "linda_arity": {k: len(v) for k, v in self._linda_arity.items()},
            "linda_field_buckets": _value_buckets(self._linda_field),
            "linda_loose_buckets": len(self._linda_loose),
            "entry_class": {
                cls.__name__: len(v) for cls, v in self._entry_class.items()
            },
            "entry_field_buckets": _value_buckets(self._entry_field),
            "entry_loose_buckets": len(self._entry_loose),
            "opaque": len(self._opaque),
        }

    def __len__(self) -> int:
        return self._count


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
