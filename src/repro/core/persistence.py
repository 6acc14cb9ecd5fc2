"""Persistent message store (Sec. 2).

"the messages are kept in a **persistent message store**" — this module
gives the space engine that property: a :class:`SpaceJournal` observes a
:class:`~repro.core.space.TupleSpace` and appends every store and drop
to an append-only journal (JSON lines wrapping XML-Tuples payloads); a
lease renewal is logged as a fresh store of the entry with its new
deadline.  After a crash, :func:`recover_space` replays the journal into
a fresh space, re-granting each surviving entry the *remainder* of its
lease.

The journal writes to any text-file-like object, so tests run it against
``io.StringIO`` and deployments against a real file::

    space = TupleSpace(clock=clock)
    journal = SpaceJournal(space, open("space.journal", "a"), codec)
    ...
    restored = TupleSpace(clock=clock)
    recover_space(restored, open("space.journal"), codec)

:meth:`SpaceJournal.snapshot` compacts the log: it rewrites only the
currently-live entries (to a new sink) so the journal does not grow
without bound.
"""

from __future__ import annotations

import json
import math
from typing import IO, Optional

from repro.core.errors import ProtocolError, SpaceError
from repro.core.space import TupleSpace
from repro.core.xmlcodec import XmlCodec


class SpaceJournal:
    """Append-only operation log attached to a space."""

    def __init__(self, space: TupleSpace, sink: IO[str], codec: XmlCodec):
        self.space = space
        self.sink = sink
        self.codec = codec
        self.entries_logged = 0
        self.drops_logged = 0
        space.observers.append(self)

    def detach(self) -> None:
        """Stop observing (e.g. before swapping in a compacted journal)."""
        try:
            self.space.observers.remove(self)
        except ValueError:
            pass

    # -- observer protocol (called by the space) ----------------------------

    def item_stored(self, seq: int, item, expires_at: float) -> None:
        self._emit({
            "op": "store",
            "seq": seq,
            "expires_at": None if math.isinf(expires_at) else expires_at,
            "item": self.codec.encode(item).decode("utf-8"),
        })
        self.entries_logged += 1

    def item_dropped(self, seq: int) -> None:
        self._emit({"op": "drop", "seq": seq})
        self.drops_logged += 1

    def _emit(self, payload: dict) -> None:
        self.sink.write(json.dumps(payload, separators=(",", ":")) + "\n")
        flush = getattr(self.sink, "flush", None)
        if flush is not None:
            flush()

    # -- compaction ------------------------------------------------------------

    def snapshot(self, new_sink: IO[str]) -> int:
        """Write only the live records to ``new_sink``; switch to it.

        Returns the number of live entries written.  The old sink is left
        for the caller to archive or delete.
        """
        live = 0
        old_sink = self.sink
        self.sink = new_sink
        for record in self.space._records.values():
            if record.lease.expired:
                continue
            self.item_stored(record.seq, record.item, record.lease.expires_at)
            live += 1
        del old_sink
        return live


def replay_journal(source: IO[str], codec: XmlCodec) -> list[tuple[int, object, Optional[float]]]:
    """Parse a journal; returns surviving ``(seq, item, expires_at)``."""
    live: dict[int, tuple[int, object, Optional[float]]] = {}
    for lineno, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"journal line {lineno}: bad JSON: {exc}")
        op = payload.get("op")
        if op == "store":
            item = codec.decode(payload["item"].encode("utf-8"))
            live[payload["seq"]] = (
                payload["seq"], item, payload.get("expires_at")
            )
        elif op == "drop":
            live.pop(payload["seq"], None)
        else:
            raise ProtocolError(f"journal line {lineno}: unknown op {op!r}")
    return [live[seq] for seq in sorted(live)]


def recover_space(space: TupleSpace, source: IO[str], codec: XmlCodec) -> int:
    """Replay a journal into ``space``; returns entries restored.

    Entries whose lease already expired (by the recovering space's clock)
    are skipped; survivors get the remainder of their original lease.
    Restored entries are re-journaled if the space has a journal attached.
    """
    restored = 0
    now = space.clock.now()
    for _seq, item, expires_at in replay_journal(source, codec):
        if expires_at is None:
            space.write(item)
            restored += 1
            continue
        remaining = expires_at - now
        if remaining <= 0:
            continue
        space.write(item, lease=remaining)
        restored += 1
    return restored
