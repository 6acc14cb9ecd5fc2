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

The fields belong to the class: ``cls._fields``, worked out once, is
the sorted names of the parameters of the ``__init__`` the class
defines (or inherits), and ``__init__`` stores each under its own name.
Matching, equality, ``repr``, the index and both codecs read only these;
an attribute set later is not a field.  Defining a class raises
``TypeError`` if its ``__init__`` takes ``*args``, ``**kwargs`` or
positional-only parameters, or if it drops a parent's field.
"""

from __future__ import annotations

import inspect
from typing import Any


class Entry:
    """Base class of everything stored in a space.

    An :class:`Entry` doubles as its own template: any instance with some
    fields left ``None`` matches entries of its class (and subclasses)
    agreeing on the non-``None`` fields.
    """

    #: The class's field names, sorted (set per class when it is defined).
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = cls.__dict__.get("__init__")
        if init is not None:
            params = list(inspect.signature(init).parameters.values())[1:]
            unnamed = [
                p.name for p in params
                if p.kind not in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
            ]
            if unnamed:
                raise TypeError(f"{cls.__name__}.__init__ takes {unnamed}: "
                                "entry fields must be named parameters")
            cls._fields = tuple(sorted(p.name for p in params))
        for base in cls.__bases__:
            dropped = set(getattr(base, "_fields", ())) - set(cls._fields)
            if dropped:
                raise TypeError(f"{cls.__name__} drops field(s) "
                                f"{sorted(dropped)} of {base.__name__}")

    def matches(self, item: Any) -> bool:
        """JavaSpaces template matching with ``self`` as the template."""
        if not isinstance(item, type(self)):
            return False
        for name in self._fields:
            value = getattr(self, name)
            if value is not None and getattr(item, name) != value:
                return False
        return True

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and [
            getattr(self, name) for name in self._fields
        ] == [getattr(other, name) for name in self._fields]

    # Entries are mutable records, not dictionary keys.
    __hash__ = None

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({inner})"
