"""JavaSpaces-style entries.

Sec. 4.1: "a JavaSpaces server holds entries.  Technically, an entry is a
typed group of objects, expressed as a class that implements the Entry
interface."  Matching follows the JavaSpaces rules: a template entry
matches a stored entry when the stored entry's class is the template's
class (or a subclass) and every non-``None`` field of the template equals
the stored entry's field; ``None`` fields are wildcards.

Define entries as plain classes with keyword fields::

    class SensorReading(Entry):
        def __init__(self, sensor_id=None, value=None, tick=None):
            self.sensor_id = sensor_id
            self.value = value
            self.tick = tick

    space.write(SensorReading("t1", 20.5, 7), lease=60.0)
    hot = space.take(SensorReading(sensor_id="t1"))   # value/tick wildcards
"""

from __future__ import annotations

from typing import Any


class Entry:
    """Base class of everything stored in a space.

    An :class:`Entry` doubles as its own template: any instance with some
    fields left ``None`` matches entries of its class (and subclasses)
    agreeing on the non-``None`` fields.
    """

    def matches(self, item: Any) -> bool:
        """JavaSpaces template matching with ``self`` as the template."""
        if not isinstance(item, type(self)):
            return False
        item_fields = entry_fields(item)
        for name, value in entry_fields(self).items():
            if value is None:
                continue
            if name not in item_fields or item_fields[name] != value:
                return False
        return True

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and entry_fields(self) == entry_fields(other)

    # Entries are mutable records, not dictionary keys.
    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k}={v!r}" for k, v in sorted(entry_fields(self).items())
        )
        return f"{type(self).__name__}({inner})"


def entry_fields(entry: Entry) -> dict[str, Any]:
    """Public fields of an entry: instance attributes not starting with _."""
    return {
        name: value
        for name, value in vars(entry).items()
        if not name.startswith("_")
    }


def iter_constrained_fields(entry: Entry):
    """Yield the ``(name, value)`` pairs a template actually constrains.

    For a stored entry this is every public field with a value; for a
    template it is the non-``None`` (non-wildcard) fields, in the
    deterministic order the instance assigned them — the matching
    engine's per-field equality index keys off exactly these pairs.
    """
    for name, value in vars(entry).items():
        if value is not None and not name.startswith("_"):
            yield name, value

