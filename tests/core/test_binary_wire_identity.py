"""The binary body codec writes the bytes it always wrote, and decodes
nothing it did not write.

``tests/golden/binary_wire_bodies.json`` holds, as hex, the binary
bodies of every case of the XML wire golden plus the serving messages
and values that stress varints, signs and UTF-8.  It was recorded from
the tagged-value encoder that preceded the one-pass codec; extend it
only for an intended wire change::

    json.dumps(record(), indent=1, sort_keys=True)

Each body must decode back to the value it came from, and every proper
prefix of it, and it with one byte more, must be refused with a
:class:`ProtocolError` (never ``IndexError``, ``struct.error`` or
``UnicodeDecodeError``).
"""

import enum
import json
import math
import pathlib

import pytest

from repro.core import ANY, Entry, LindaTuple, TupleTemplate
from repro.core.bincodec import BinaryCodec, BinaryWireCodec
from repro.core.errors import ProtocolError
from repro.core.protocol import Message, MessageType

from tests.core import test_xml_wire_identity as xml_cases

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden" / "binary_wire_bodies.json"


class Part(Entry):
    """The read-mostly serving workload's entry."""

    def __init__(self, key=None, station=None, weight=None):
        self.key = key
        self.station = station
        self.weight = weight


class Größe(Entry):
    """Non-ASCII class and field names: UTF-8 lengths, not characters."""

    def __init__(self, maß=None, wert=None):
        self.maß = maß
        self.wert = wert


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 300


class Label(str):
    pass


def cases():
    """``{name: (kind, value)}``: the XML golden's cases, then the
    binary-only ones."""
    part = Part(4321, "st17", 124.625)
    template = Part(key=4321)
    long_text = "ü" * 100  # 200 bytes: a two-byte length varint
    return {
        **xml_cases.cases(),
        "serve-read": ("body", Message(MessageType.READ_IF_EXISTS, 11, {}, template)),
        "serve-take": ("body", Message(MessageType.TAKE_IF_EXISTS, 12, {}, template)),
        "serve-read-blocking": ("body", Message(
            MessageType.READ, 13, {"timeout": 0.05}, template)),
        "serve-write": ("body", Message(MessageType.WRITE, 14, {}, part)),
        "serve-result-entry": ("body", Message(MessageType.RESULT_ENTRY, 11, {}, part)),
        "serve-write-ack": ("body", Message(
            MessageType.WRITE_ACK, 14, {"lease_id": (1 << 32) + 9, "granted": 60.0})),
        "ints-around-varint-edges": ("item", LindaTuple(
            63, 64, -64, -65, 8191, 8192, -(2**63), 2**63 - 1, 2**64, 2**600, -(2**600))),
        "floats-signed-and-odd": ("item", LindaTuple(
            -1.5, -0.0, 1e-310, -1e308, float("nan"), 0.1)),
        "strings-non-ascii": ("item", LindaTuple(
            "ü", "日本語", "\U0001f600", long_text, "\x00\x7f", "a\r\nb")),
        "long-containers": ("item", LindaTuple(
            list(range(200)), tuple("x" * 130), {f"k{i:03d}": i for i in range(130)},
            b"\xab" * 300)),
        "entry-non-ascii-names": ("item", Größe("Kantenlänge", ["é", 2])),
        "entry-subclassed-values": ("item", Part(Level.HIGH, Label("st-label"), True)),
        "entry-in-list-in-entry": ("item", Part([Part(1, "a", 0.5), Größe()], {}, ())),
        "template-serving": ("item", TupleTemplate(
            "job", ANY, int, str, -7, "ü", Part(key=3))),
    }


def make_registry():
    registry = xml_cases.make_codec()
    registry.register(Part)
    registry.register(Größe)
    return registry


def encode_case(kind, value, registry):
    if kind == "item":
        return BinaryCodec(registry).encode(value)
    return BinaryWireCodec(registry).encode_body(value)


def decode_case(kind, body, registry):
    if kind == "item":
        return BinaryCodec(registry).decode(body)
    return BinaryWireCodec(registry).decode_body(MessageType.WRITE, 1, body)


def wire_value(value):
    """What the binary wire carries of ``value``, as plain comparable data.

    Kinds are told apart in the encoder's order, so a ``bool`` is not an
    ``int``, an ``IntEnum`` is its ``int`` and a ``str`` subclass is its
    ``str``; a NaN equals a NaN, and ``-0.0`` is not ``0.0``.
    """
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, int):
        return ("int", int(value))
    if isinstance(value, float):
        return ("float", "nan" if math.isnan(value) else value.hex())
    if isinstance(value, str):
        return ("str", str(value))
    if isinstance(value, bytes):
        return ("bytes", bytes(value))
    if isinstance(value, list):
        return ("list", [wire_value(member) for member in value])
    if isinstance(value, tuple):
        return ("pytuple", [wire_value(member) for member in value])
    if isinstance(value, dict):
        return ("dict", sorted((key, wire_value(member)) for key, member in value.items()))
    if isinstance(value, LindaTuple):
        return ("tuple", [wire_value(member) for member in value.fields])
    if isinstance(value, Entry):
        return ("entry", type(value).__name__,
                [(name, wire_value(getattr(value, name))) for name in value._fields])
    if isinstance(value, TupleTemplate):
        return ("template", [
            "any" if pattern is ANY
            else ("formal", pattern.__name__) if isinstance(pattern, type)
            else wire_value(pattern)
            for pattern in value.patterns
        ])
    if isinstance(value, Message):
        return ("message", sorted((key, str(param)) for key, param in value.params.items()),
                wire_value(value.item))
    raise TypeError(f"no wire form for {type(value).__name__}")


def record():
    """The golden document for :func:`cases`, written by the encoder."""
    registry = make_registry()
    return {name: encode_case(kind, value, registry).hex()
            for name, (kind, value) in cases().items()}


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_encoder_matches_recorded_bytes(name):
    kind, value = cases()[name]
    assert encode_case(kind, value, make_registry()).hex() == _golden()[name]


@pytest.mark.parametrize("name", sorted(cases()))
def test_recorded_bytes_decode_to_the_value(name):
    kind, value = cases()[name]
    back = decode_case(kind, bytes.fromhex(_golden()[name]), make_registry())
    assert wire_value(back) == wire_value(value)


@pytest.mark.parametrize("name", sorted(cases()))
def test_every_prefix_and_one_byte_more_is_refused(name):
    kind, _ = cases()[name]
    body = bytes.fromhex(_golden()[name])
    registry = make_registry()
    # An empty message body is a legal body (no params, no item).
    first = 0 if kind == "item" else 1
    for cut in range(first, len(body)):
        with pytest.raises(ProtocolError):
            decode_case(kind, body[:cut], registry)
    for extra in (b"\x00", b"\x80", b"\xff"):
        with pytest.raises(ProtocolError):
            decode_case(kind, body + extra, registry)
