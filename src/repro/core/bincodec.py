"""Length-prefixed binary body codec (negotiated alternative to XML).

The paper's wire format is XML (Sec. 4.2) and stays the default for
fidelity — every golden trace is byte-identical XML.  At the scale the
ROADMAP targets, though, encoding dominates per-op cost, so a connection
may negotiate this compact binary encoding through the HELLO/HELLO_ACK
exchange of :mod:`repro.core.protocol` (docs/wire.md).  Only the frame
*body* changes; the 11-byte header and the framing rules are shared.

The codec mirrors the XML value model exactly — both decode against the
same :class:`~repro.core.xmlcodec.XmlCodec` entry-class registry, and
every value the XML codec can carry (including the ``pytuple`` kind that
keeps Python tuples distinct from lists) round-trips identically here.

Body layout (big-endian)::

    param_count: varint
    param_count x (key: str, value: str)     -- scalar params, sorted key
    item_flag(1)                             -- 0x00 absent, 0x01 present
    item: value                              -- tagged value (below)

Values are one tag byte plus a tag-specific payload; varints are
unsigned LEB128, ints additionally zigzag-encoded so arbitrary Python
ints survive (matching XML's unbounded decimal literals)::

    0x00 none | 0x01 false | 0x02 true
    0x03 int      zigzag varint
    0x04 float    8-byte IEEE-754 double
    0x05 str      varint byte length + UTF-8
    0x06 bytes    varint length + raw
    0x07 list     varint count + values
    0x08 pytuple  varint count + values
    0x09 dict     varint count + (key str, value), sorted keys
    0x0A tuple    varint count + values          (a LindaTuple)
    0x0B entry    class-name str + varint count + (name str, value)
    0x0C template varint count + patterns
    0x0D any      (template wildcard)
    0x0E formal   type-name str                  (template type pattern)

Decoding is strict: truncated payloads, unknown tags, a top-level item
that is not an entry, tuple or template, nesting deeper than the
interpreter's recursion limit, non-canonical floats of the wrong width
or trailing garbage all raise :class:`~repro.core.errors.ProtocolError`,
never crash or mis-decode.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core.entry import Entry
from repro.core.errors import ProtocolError
from repro.core.protocol import Message, MessageType
from repro.core.tuples import ANY, LindaTuple, TupleTemplate
from repro.core.xmlcodec import XmlCodec

TAG_NONE = 0x00
TAG_FALSE = 0x01
TAG_TRUE = 0x02
TAG_INT = 0x03
TAG_FLOAT = 0x04
TAG_STR = 0x05
TAG_BYTES = 0x06
TAG_LIST = 0x07
TAG_PYTUPLE = 0x08
TAG_DICT = 0x09
TAG_TUPLE = 0x0A
TAG_ENTRY = 0x0B
TAG_TEMPLATE = 0x0C
TAG_ANY = 0x0D
TAG_FORMAL = 0x0E

_DOUBLE = struct.Struct(">d")
_pack_double = _DOUBLE.pack
_unpack_double = _DOUBLE.unpack_from

#: Formal (type-pattern) names shared with the XML codec's table.
_FORMAL_TYPES = dict(XmlCodec._FORMAL_TYPES)
_FORMAL_NAMES = {cls: name for name, cls in _FORMAL_TYPES.items()}

_TRUNCATED = "truncated binary body"
_TOO_DEEP = "binary body nested too deeply"

#: The tags a top-level item may carry; the XML codec likewise accepts
#: only ``<entry>``, ``<tuple>`` and ``<template>`` there.
_ITEM_TAGS = frozenset((TAG_ENTRY, TAG_TUPLE, TAG_TEMPLATE))

#: A varint longer than this many 7-bit groups is refused: ints are
#: unbounded like XML's decimal literals, but a multi-kilobyte varint is
#: an attack, not a number.
_MAX_VARINT_SHIFT = 4096 * 7


# -- encoding ---------------------------------------------------------------


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    size = len(raw)
    if size < 0x80:
        out.append(size)
    else:
        _write_varint(out, size)
    out += raw


def _zigzag(value: int) -> int:
    # Arbitrary-precision ints survive, matching XML's unbounded decimal
    # literals.
    return value << 1 if value >= 0 else ((-value) << 1) - 1


#: ``{entry class: (head, ((field name, name prefix), ...))}``.  The head
#: is the bytes of ``TAG_ENTRY``, the class name and the field count, a
#: prefix the bytes of one field's name.  A class's fields are fixed when
#: it is defined (``Entry.__init_subclass__``), so a plan never goes stale.
_ENTRY_PLANS: dict[type, tuple[bytes, tuple[tuple[str, bytes], ...]]] = {}


def _entry_plan(entry_class: type) -> tuple[bytes, tuple[tuple[str, bytes], ...]]:
    head = bytearray((TAG_ENTRY,))
    _write_str(head, entry_class.__name__)
    _write_varint(head, len(entry_class._fields))
    fields = []
    for name in entry_class._fields:
        prefix = bytearray()
        _write_str(prefix, name)
        fields.append((name, bytes(prefix)))
    plan = _ENTRY_PLANS[entry_class] = (bytes(head), tuple(fields))
    return plan


def _write_entry(out: bytearray, entry: Entry) -> None:
    plan = _ENTRY_PLANS.get(type(entry))
    head, fields = plan if plan is not None else _entry_plan(type(entry))
    out += head
    for name, prefix in fields:
        out += prefix
        value = getattr(entry, name)
        kind = type(value)
        # Exact types only: bool, IntEnum and str subclasses take the
        # general writer, which decides by isinstance in wire order.
        if value is None:
            out.append(TAG_NONE)
        elif kind is int:
            out.append(TAG_INT)
            _write_varint(out, _zigzag(value))
        elif kind is str:
            out.append(TAG_STR)
            _write_str(out, value)
        elif kind is float:
            out.append(TAG_FLOAT)
            out += _pack_double(value)
        else:
            _write_value(out, value)


def _write_item(out: bytearray, item: Any) -> None:
    if isinstance(item, Entry):
        _write_entry(out, item)
    elif isinstance(item, LindaTuple):
        out.append(TAG_TUPLE)
        _write_varint(out, len(item.fields))
        for value in item.fields:
            _write_value(out, value)
    elif isinstance(item, TupleTemplate):
        out.append(TAG_TEMPLATE)
        _write_varint(out, len(item.patterns))
        for pattern in item.patterns:
            if pattern is ANY:
                out.append(TAG_ANY)
            elif isinstance(pattern, type):
                out.append(TAG_FORMAL)
                _write_str(out, _FORMAL_NAMES.get(pattern, pattern.__name__))
            else:
                _write_value(out, pattern)
    else:
        raise ProtocolError(
            f"cannot encode {type(item).__name__} as a binary item"
        )


def _write_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(TAG_NONE)
    elif isinstance(value, bool):
        out.append(TAG_TRUE if value else TAG_FALSE)
    elif isinstance(value, int):
        out.append(TAG_INT)
        _write_varint(out, _zigzag(value))
    elif isinstance(value, float):
        out.append(TAG_FLOAT)
        out += _pack_double(value)
    elif isinstance(value, str):
        out.append(TAG_STR)
        _write_str(out, value)
    elif isinstance(value, bytes):
        out.append(TAG_BYTES)
        _write_varint(out, len(value))
        out += value
    elif isinstance(value, list):
        out.append(TAG_LIST)
        _write_varint(out, len(value))
        for member in value:
            _write_value(out, member)
    elif isinstance(value, tuple):
        out.append(TAG_PYTUPLE)
        _write_varint(out, len(value))
        for member in value:
            _write_value(out, member)
    elif isinstance(value, dict):
        out.append(TAG_DICT)
        _write_varint(out, len(value))
        for key in sorted(value):
            if not isinstance(key, str):
                raise ProtocolError("dict keys must be strings on the wire")
            _write_str(out, key)
            _write_value(out, value[key])
    elif isinstance(value, LindaTuple):
        out.append(TAG_TUPLE)
        _write_varint(out, len(value.fields))
        for member in value.fields:
            _write_value(out, member)
    elif isinstance(value, Entry):
        _write_entry(out, value)
    else:
        raise ProtocolError(
            f"unsupported field type {type(value).__name__} for binary"
        )


# -- decoding ---------------------------------------------------------------
#
# Each reader takes the body and a position and returns ``(value, next
# position)``.  Reading past the end indexes out of range: the entry
# points turn that ``IndexError`` into a ProtocolError, and every slice
# and fixed-width unpack checks its end explicitly.


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7
        if shift > _MAX_VARINT_SHIFT:
            raise ProtocolError("malformed varint")


def _read_str(data: bytes, pos: int) -> tuple[str, int]:
    size = data[pos]
    if size < 0x80:
        pos += 1
    else:
        size, pos = _read_varint(data, pos)
    end = pos + size
    if end > len(data):
        raise ProtocolError(_TRUNCATED)
    try:
        return data[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"bad UTF-8 in binary body: {exc}") from exc


def _read_count(data: bytes, pos: int) -> tuple[int, int]:
    count = data[pos]
    if count < 0x80:
        return count, pos + 1
    return _read_varint(data, pos)


def _read_value(data: bytes, pos: int, registry: XmlCodec) -> tuple[Any, int]:
    tag = data[pos]
    pos += 1
    if tag == TAG_NONE:
        return None, pos
    if tag == TAG_STR:
        return _read_str(data, pos)
    if tag == TAG_INT:
        raw = data[pos]
        if raw < 0x80:
            pos += 1
        else:
            raw, pos = _read_varint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == TAG_FLOAT:
        if pos + 8 > len(data):
            raise ProtocolError(_TRUNCATED)
        return _unpack_double(data, pos)[0], pos + 8
    if tag == TAG_ENTRY:
        class_name, pos = _read_str(data, pos)
        fields, pos = _read_named(data, pos, registry)
        return registry.build_entry(class_name, fields), pos
    if tag == TAG_FALSE:
        return False, pos
    if tag == TAG_TRUE:
        return True, pos
    if tag == TAG_BYTES:
        size, pos = _read_count(data, pos)
        end = pos + size
        if end > len(data):
            raise ProtocolError(_TRUNCATED)
        return bytes(data[pos:end]), end
    if tag == TAG_LIST or tag == TAG_PYTUPLE or tag == TAG_TUPLE:
        count, pos = _read_count(data, pos)
        members = []
        for _ in range(count):
            member, pos = _read_value(data, pos, registry)
            members.append(member)
        if tag == TAG_LIST:
            return members, pos
        if tag == TAG_PYTUPLE:
            return tuple(members), pos
        return LindaTuple(*members), pos
    if tag == TAG_DICT:
        pairs, pos = _read_named(data, pos, registry)
        return dict(pairs), pos
    if tag == TAG_TEMPLATE:
        count, pos = _read_count(data, pos)
        patterns = []
        for _ in range(count):
            pattern, pos = _read_pattern(data, pos, registry)
            patterns.append(pattern)
        return TupleTemplate(*patterns), pos
    if tag == TAG_ANY or tag == TAG_FORMAL:
        raise ProtocolError("pattern tag outside a template")
    raise ProtocolError(f"unknown binary tag {tag:#04x}")


def _read_item(data: bytes, pos: int, registry: XmlCodec) -> tuple[Any, int]:
    """A message's item: an entry, tuple or template, as on the XML wire."""
    if data[pos] not in _ITEM_TAGS:
        raise ProtocolError(
            f"binary item must be an entry, tuple or template, "
            f"not tag {data[pos]:#04x}"
        )
    return _read_value(data, pos, registry)


def _read_named(
    data: bytes, pos: int, registry: XmlCodec
) -> tuple[list[tuple[str, Any]], int]:
    """``(name, value)`` pairs of an entry or dict: a count, then each
    name string and its value."""
    count, pos = _read_count(data, pos)
    pairs = []
    for _ in range(count):
        name, pos = _read_str(data, pos)
        value, pos = _read_value(data, pos, registry)
        pairs.append((name, value))
    return pairs, pos


def _read_pattern(data: bytes, pos: int, registry: XmlCodec) -> tuple[Any, int]:
    tag = data[pos]
    if tag == TAG_ANY:
        return ANY, pos + 1
    if tag == TAG_FORMAL:
        name, pos = _read_str(data, pos + 1)
        formal = _FORMAL_TYPES.get(name)
        if formal is None:
            raise ProtocolError(f"unknown formal type {name!r}")
        return formal, pos
    return _read_value(data, pos, registry)


class BinaryCodec:
    """Encode/decode the XML codec's value model as tagged binary.

    Shares the entry-class registry of the :class:`XmlCodec` it wraps:
    a class registered once decodes on both wire encodings.
    """

    def __init__(self, registry: XmlCodec):
        self.registry = registry

    def encode(self, item: Any) -> bytes:
        out = bytearray()
        _write_item(out, item)
        return bytes(out)

    def decode(self, data: bytes) -> Any:
        try:
            item, pos = _read_item(data, 0, self.registry)
        except IndexError:
            raise ProtocolError(_TRUNCATED) from None
        except RecursionError:
            raise ProtocolError(_TOO_DEEP) from None
        if pos != len(data):
            raise ProtocolError("trailing bytes after binary item")
        return item


class BinaryWireCodec:
    """Binary *body* encoding of whole protocol messages.

    Plugs into :class:`~repro.core.protocol.StreamParser` and
    :func:`~repro.core.protocol.encode_message` wherever the XML wire
    codec does; selected per-connection by the HELLO exchange.
    """

    name = "binary"

    def __init__(self, registry: XmlCodec):
        self.registry = registry

    def encode_body(self, message: Message) -> bytes:
        params = message.params
        item = message.item
        if params:
            out = bytearray()
            _write_varint(out, len(params))
            for key, value in sorted(params.items()):
                _write_str(out, key)
                _write_str(out, str(value))
        elif item is None:
            return b""
        else:
            out = bytearray(b"\x00")
        if item is None:
            out.append(0x00)
        else:
            out.append(0x01)
            _write_item(out, item)
        return bytes(out)

    def decode_body(
        self, msg_type: MessageType, request_id: int, body: bytes
    ) -> Message:
        if not body:
            return Message(msg_type, request_id)
        try:
            count, pos = _read_count(body, 0)
            params = {}
            for _ in range(count):
                key, pos = _read_str(body, pos)
                params[key], pos = _read_str(body, pos)
            flag = body[pos]
            if flag == 0x00:
                item = None
                pos += 1
            elif flag == 0x01:
                item, pos = _read_item(body, pos + 1, self.registry)
            else:
                raise ProtocolError(f"bad item flag {flag:#04x}")
        except IndexError:
            raise ProtocolError(_TRUNCATED) from None
        except RecursionError:
            raise ProtocolError(_TOO_DEEP) from None
        if pos != len(body):
            raise ProtocolError("trailing bytes after binary message body")
        return Message(msg_type, request_id, params, item)


__all__ = ["BinaryCodec", "BinaryWireCodec"]
