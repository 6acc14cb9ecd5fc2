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

Decoding is strict: truncated payloads, unknown tags, non-canonical
floats of the wrong width or trailing garbage all raise
:class:`~repro.core.errors.ProtocolError`, never crash or mis-decode.
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

#: Formal (type-pattern) names shared with the XML codec's table.
_FORMAL_TYPES = dict(XmlCodec._FORMAL_TYPES)
_FORMAL_NAMES = {cls: name for name, cls in _FORMAL_TYPES.items()}


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
    _write_varint(out, len(raw))
    out += raw


class _Reader:
    """Bounds-checked cursor over one body; all errors are typed."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def read_exact(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise ProtocolError("truncated binary body")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise ProtocolError("truncated binary body")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def varint(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self.byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 4096 * 7:
                # Ints are unbounded like XML's decimal literals, but a
                # multi-kilobyte varint is an attack, not a number.
                raise ProtocolError("malformed varint")

    def string(self) -> str:
        raw = self.read_exact(self.varint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"bad UTF-8 in binary body: {exc}") from exc

    def done(self) -> bool:
        return self.pos == len(self.data)


class BinaryCodec:
    """Encode/decode the XML codec's value model as tagged binary.

    Shares the entry-class registry of the :class:`XmlCodec` it wraps:
    a class registered once decodes on both wire encodings.
    """

    def __init__(self, registry: XmlCodec):
        self.registry = registry

    # -- encoding -----------------------------------------------------------

    def encode(self, item: Any) -> bytes:
        out = bytearray()
        self._write_item(out, item)
        return bytes(out)

    def _write_item(self, out: bytearray, item: Any) -> None:
        if isinstance(item, Entry):
            out.append(TAG_ENTRY)
            _write_str(out, type(item).__name__)
            _write_varint(out, len(item._fields))
            for name in item._fields:
                _write_str(out, name)
                self._write_value(out, getattr(item, name))
        elif isinstance(item, LindaTuple):
            out.append(TAG_TUPLE)
            _write_varint(out, len(item.fields))
            for value in item.fields:
                self._write_value(out, value)
        elif isinstance(item, TupleTemplate):
            out.append(TAG_TEMPLATE)
            _write_varint(out, len(item.patterns))
            for pattern in item.patterns:
                self._write_pattern(out, pattern)
        else:
            raise ProtocolError(
                f"cannot encode {type(item).__name__} as a binary item"
            )

    def _write_pattern(self, out: bytearray, pattern: Any) -> None:
        if pattern is ANY:
            out.append(TAG_ANY)
        elif isinstance(pattern, type):
            name = _FORMAL_NAMES.get(pattern, pattern.__name__)
            out.append(TAG_FORMAL)
            _write_str(out, name)
        else:
            self._write_value(out, pattern)

    def _write_value(self, out: bytearray, value: Any) -> None:
        if value is None:
            out.append(TAG_NONE)
        elif isinstance(value, bool):
            out.append(TAG_TRUE if value else TAG_FALSE)
        elif isinstance(value, int):
            out.append(TAG_INT)
            # zigzag: arbitrary-precision ints survive, matching XML's
            # unbounded decimal literals.
            _write_varint(
                out, value << 1 if value >= 0 else ((-value) << 1) - 1
            )
        elif isinstance(value, float):
            out.append(TAG_FLOAT)
            out += _DOUBLE.pack(value)
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
                self._write_value(out, member)
        elif isinstance(value, tuple):
            out.append(TAG_PYTUPLE)
            _write_varint(out, len(value))
            for member in value:
                self._write_value(out, member)
        elif isinstance(value, dict):
            out.append(TAG_DICT)
            _write_varint(out, len(value))
            for key in sorted(value):
                if not isinstance(key, str):
                    raise ProtocolError("dict keys must be strings on the wire")
                _write_str(out, key)
                self._write_value(out, value[key])
        elif isinstance(value, LindaTuple):
            out.append(TAG_TUPLE)
            _write_varint(out, len(value.fields))
            for member in value.fields:
                self._write_value(out, member)
        elif isinstance(value, Entry):
            self._write_item(out, value)
        else:
            raise ProtocolError(
                f"unsupported field type {type(value).__name__} for binary"
            )

    # -- decoding -----------------------------------------------------------

    def decode(self, data: bytes) -> Any:
        reader = _Reader(data)
        item = self._read_value(reader)
        if not reader.done():
            raise ProtocolError("trailing bytes after binary item")
        return item

    def _read_value(self, reader: _Reader) -> Any:
        tag = reader.byte()
        if tag == TAG_NONE:
            return None
        if tag == TAG_FALSE:
            return False
        if tag == TAG_TRUE:
            return True
        if tag == TAG_INT:
            raw = reader.varint()
            return (raw >> 1) ^ -(raw & 1)
        if tag == TAG_FLOAT:
            return _DOUBLE.unpack(reader.read_exact(8))[0]
        if tag == TAG_STR:
            return reader.string()
        if tag == TAG_BYTES:
            return bytes(reader.read_exact(reader.varint()))
        if tag == TAG_LIST:
            return [self._read_value(reader) for _ in range(reader.varint())]
        if tag == TAG_PYTUPLE:
            return tuple(
                self._read_value(reader) for _ in range(reader.varint())
            )
        if tag == TAG_DICT:
            return dict(self._read_named(reader))
        if tag == TAG_TUPLE:
            return LindaTuple(
                *[self._read_value(reader) for _ in range(reader.varint())]
            )
        if tag == TAG_ENTRY:
            return self.registry.build_entry(reader.string(), self._read_named(reader))
        if tag == TAG_TEMPLATE:
            return TupleTemplate(
                *[self._read_pattern(reader) for _ in range(reader.varint())]
            )
        if tag in (TAG_ANY, TAG_FORMAL):
            raise ProtocolError("pattern tag outside a template")
        raise ProtocolError(f"unknown binary tag {tag:#04x}")

    def _read_named(self, reader: _Reader):
        """``(name, value)`` pairs of an entry or dict: a count, then each
        name string and its value."""
        for _ in range(reader.varint()):
            name = reader.string()
            yield name, self._read_value(reader)

    def _read_pattern(self, reader: _Reader) -> Any:
        tag = reader.data[reader.pos] if reader.pos < len(reader.data) else None
        if tag == TAG_ANY:
            reader.byte()
            return ANY
        if tag == TAG_FORMAL:
            reader.byte()
            name = reader.string()
            formal = _FORMAL_TYPES.get(name)
            if formal is None:
                raise ProtocolError(f"unknown formal type {name!r}")
            return formal
        return self._read_value(reader)


class BinaryWireCodec:
    """Binary *body* encoding of whole protocol messages.

    Plugs into :class:`~repro.core.protocol.StreamParser` and
    :func:`~repro.core.protocol.encode_message` wherever the XML wire
    codec does; selected per-connection by the HELLO exchange.
    """

    name = "binary"

    def __init__(self, registry: XmlCodec):
        self.registry = registry
        self.values = BinaryCodec(registry)

    def encode_body(self, message: Message) -> bytes:
        if not message.params and message.item is None:
            return b""
        out = bytearray()
        params = sorted(message.params.items())
        _write_varint(out, len(params))
        for key, value in params:
            _write_str(out, key)
            _write_str(out, str(value))
        if message.item is None:
            out.append(0x00)
        else:
            out.append(0x01)
            self.values._write_item(out, message.item)
        return bytes(out)

    def decode_body(
        self, msg_type: MessageType, request_id: int, body: bytes
    ) -> Message:
        if not body:
            return Message(msg_type, request_id)
        reader = _Reader(body)
        params = {}
        for _ in range(reader.varint()):
            key = reader.string()
            params[key] = reader.string()
        flag = reader.byte()
        if flag not in (0x00, 0x01):
            raise ProtocolError(f"bad item flag {flag:#04x}")
        item = None
        if flag:
            item = self.values._read_value(reader)
        if not reader.done():
            raise ProtocolError("trailing bytes after binary message body")
        return Message(msg_type, request_id, params, item)


__all__ = ["BinaryCodec", "BinaryWireCodec"]
