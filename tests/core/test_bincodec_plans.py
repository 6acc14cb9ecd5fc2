"""Decode plans read exactly what the general entry reader reads.

An entry body whose fields arrive in class order under the encoder's
name prefixes is decoded by its class's plan; every other layout goes
to the general reader.  Over registered classes (``Größe``'s names are
not ASCII, ``Checked`` refuses some values with ``TypeError``),
canonical bodies and bodies with permuted, dropped,
duplicated and renamed fields, every truncation of them and each with
one byte more must decode to equal values, or fail with the same
:class:`ProtocolError` text, with plans and without.
"""

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import Entry, XmlCodec, bincodec
from repro.core.bincodec import BinaryCodec
from repro.core.errors import ProtocolError

from tests.core.test_binary_wire_identity import Größe, Part, make_registry, wire_value



class Checked(Entry):
    """A constructor that refuses a value: the plan must hand the body
    to the general reader, which reports it as a ``ProtocolError``."""

    def __init__(self, count=None):
        if isinstance(count, str):
            raise TypeError("count must not be a str")
        self.count = count


CLASSES = (Part, Größe, Checked)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=4),
)
values = st.one_of(scalars, st.lists(scalars, max_size=3))


def _str(text: str) -> bytes:
    out = bytearray()
    bincodec._write_str(out, text)
    return bytes(out)


def _value(value) -> bytes:
    out = bytearray()
    bincodec._write_value(out, value)
    return bytes(out)


def entry_body(class_name: str, fields: list) -> bytes:
    """An entry item of ``(name, value)`` pairs laid out as given."""
    out = bytearray((bincodec.TAG_ENTRY,))
    out += _str(class_name)
    bincodec._write_varint(out, len(fields))
    for name, value in fields:
        out += _str(name) + _value(value)
    return bytes(out)


@st.composite
def layouts(draw):
    """``(registered class, field layout)``: canonical, or one edit away."""
    entry_class = draw(st.sampled_from(CLASSES))
    fields = [(name, draw(values)) for name in entry_class._fields]
    edit = draw(st.sampled_from(("canonical", "permute", "drop", "duplicate", "rename")))
    if edit == "permute":
        fields = draw(st.permutations(fields))
    elif edit == "drop":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif edit == "duplicate":
        fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(fields)))
    elif edit == "rename":
        i = draw(st.integers(0, len(fields) - 1))
        other = draw(st.sampled_from(["maß", "key", "wert", "x", fields[i][0] + "ß"]))
        fields[i] = (other, fields[i][1])
    return entry_class, fields


def outcome(decode, body: bytes):
    try:
        return "value", wire_value(decode(body))
    except ProtocolError as exc:
        return "error", str(exc)


def general_outcome(codec: BinaryCodec, body: bytes):
    with mock.patch.object(bincodec, "_read_entry", bincodec._read_entry_general):
        return outcome(codec.decode, body)


def planned_registry():
    """A registry holding the plans of every class in :data:`CLASSES`."""
    registry = make_registry()
    registry.register(Checked)
    codec = BinaryCodec(registry)
    for entry_class in CLASSES:
        codec.decode(codec.encode(entry_class()))
    assert len(registry.binary_plans) == len(CLASSES)
    return registry


REGISTRY = planned_registry()
CODEC = BinaryCodec(REGISTRY)


@settings(max_examples=300, deadline=None)
@given(layouts())
def test_plans_and_the_general_reader_agree(layout):
    entry_class, fields = layout
    body = entry_body(entry_class.__name__, fields)
    for cut in [body[:end] for end in range(len(body))] + [body, body + b"\x00"]:
        assert outcome(CODEC.decode, cut) == general_outcome(CODEC, cut), cut


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CLASSES).flatmap(
    lambda cls: st.tuples(st.just(cls), st.lists(values, min_size=len(cls._fields),
                                                  max_size=len(cls._fields)))))
def test_a_canonical_body_never_reaches_the_general_reader(drawn):
    entry_class, field_values = drawn
    try:
        entry = entry_class(**dict(zip(entry_class._fields, field_values)))
    except TypeError:
        assume(False)
    body = CODEC.encode(entry)
    with mock.patch.object(bincodec, "_read_entry_general", side_effect=AssertionError):
        assert wire_value(CODEC.decode(body)) == wire_value(entry)


def test_a_class_registered_elsewhere_under_the_same_name_is_not_planned():
    """Plans belong to their registry: the same head decodes to each
    registry's own class."""

    class Part(Entry):  # the same name as the shared registry's Part
        def __init__(self, key=None, station=None, weight=None):
            self.key, self.station, self.weight = key, station, weight

    other = XmlCodec()
    other.register(Part)
    body = CODEC.encode(Part(1, "a", 2.0))
    assert type(BinaryCodec(other).decode(body)) is Part
    assert type(CODEC.decode(body)) is not Part
