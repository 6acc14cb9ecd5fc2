"""The XML writer produces the bytes ElementTree produced.

Sec. 4.2's XML-Tuples cross the TpWIRE bus, and their byte size sets the
frame counts behind Table 4, so the writer in :mod:`repro.core.xmlcodec`
must emit exactly what the element-building encoder it replaced emitted.
Two checks hold it there:

* ``tests/golden/xml_wire_bodies.json`` holds the bodies of
  :func:`cases` as the ElementTree encoder wrote them.  It was recorded
  from that encoder, and is extended from the oracle below, never from
  the writer.
* A hypothesis property compares the writer with :func:`oracle`, a small
  ElementTree encoder kept here, over the whole value model.

The one intended difference: a ``\\r`` in text is written as ``&#13;``,
because an XML parser turns a raw CR into ``\\n``.  The golden cases
carry no ``\\r`` in text, and the oracle applies that one substitution.
"""

import json
import pathlib
import re
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ANY, Entry, LindaTuple, TupleTemplate, XmlCodec
from repro.core.errors import ProtocolError
from repro.core.protocol import Message, MessageType, XmlWireCodec, encode_message
from repro.core.xmlcodec import _NOT_XML_CHAR
from repro.cosim.scenarios import MachineParameters, default_entry

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden" / "xml_wire_bodies.json"

#: Every awkward character ElementTree escapes somewhere.
SPECIALS = 'a&b<c>d"e\nf\tg'


class Block(Entry):
    def __init__(self, name=None, values=None, meta=None, raw=None, ok=None):
        self.name = name
        self.values = values
        self.meta = meta
        self.raw = raw
        self.ok = ok


class Bare(Entry):
    pass


def _machine(key, seed=1):
    """The serving benchmark's churn entry for one key."""
    entry = default_entry()
    entry.machine_id = f"cell-{key:04d}/axis-drive-3"
    entry.checksum = (key * 131 + seed) & 0xFFFF
    return entry


def _every_value():
    return [
        None, True, False, 0, -5, 2**70, 1.5, -0.0, 1e300, 5e-324,
        float("inf"), float("-inf"), float("nan"),
        "", "plain", SPECIALS, "héllo ☃ \U0001d11e", "]]>", "\x7f\x85\u2028",
        b"", b"\x00\xff", [], [1, "x", [None]], (), (1, (2,), []), {},
        {"b": 1, "a": [None], "": ""}, {SPECIALS + "\r": SPECIALS},
        LindaTuple("inner", 1), Block("nested", [2.5]), Bare(),
    ]


def cases():
    """``{name: (kind, value)}``: ``item`` values go through
    :meth:`XmlCodec.encode`, ``body`` values are messages for
    :meth:`XmlWireCodec.encode_body`."""
    machine = _machine(7)
    template = MachineParameters(
        machine_id=machine.machine_id, recipe=machine.recipe,
        firmware=machine.firmware, tool_slot=machine.tool_slot,
    )
    lease_id = (1 << 32) + 5
    return {
        "tuple-every-value": ("item", LindaTuple(*_every_value())),
        "entry-every-type": ("item", Block(
            SPECIALS, [1, 2.5, "x", (), {}], {"unit": "mm", "k&<>": (1, "y")},
            b"\x01\x02", False)),
        "entry-all-none": ("item", Block()),
        "entry-no-fields": ("item", Bare()),
        "entry-nested": ("item", Block("outer", Block("inner", [Block()]))),
        "entry-empty-strings": ("item", Block("", [""], {"": ""}, b"", True)),
        "template-patterns": ("item", TupleTemplate(
            ANY, int, float, str, bool, bytes, list, tuple, dict,
            "v", SPECIALS, None, ["x", 1], {"k": 1}, Block("b"))),
        "table4-default-entry": ("item", default_entry()),
        "churn-write": ("body", Message(MessageType.WRITE, 3, {"lease": 160.0}, machine)),
        "churn-take": ("body", Message(MessageType.TAKE_IF_EXISTS, 4, {}, template)),
        "churn-result-entry": ("body", Message(MessageType.RESULT_ENTRY, 4, {}, machine)),
        "churn-write-ack": ("body", Message(
            MessageType.WRITE_ACK, 3, {"lease_id": lease_id, "granted": 160.0})),
        "envelope-empty": ("body", Message(MessageType.PING, 1)),
        "envelope-params-only": ("body", Message(
            MessageType.RENEW_LEASE, 2, {"lease_id": lease_id, "duration": 10})),
        "envelope-item-only": ("body", Message(
            MessageType.WRITE, 2, {}, LindaTuple("job", 3))),
        "envelope-escaped-params": ("body", Message(
            MessageType.ERROR, 9, {"text": SPECIALS + "\r", "op_key": "k-1", "dup": 0})),
        "envelope-template": ("body", Message(
            MessageType.READ, 5, {"timeout": 0.05}, TupleTemplate("job", int, ANY))),
    }


def encode_case(kind, value, codec):
    if kind == "item":
        return codec.encode(value)
    return XmlWireCodec(codec).encode_body(value)


def make_codec():
    codec = XmlCodec()
    for entry_class in (Block, Bare, MachineParameters):
        codec.register(entry_class)
    return codec


# -- the ElementTree oracle -------------------------------------------------------


def _oracle_element(item):
    if isinstance(item, Entry):
        element = ET.Element("entry", {"class": type(item).__name__})
        for name in type(item)._fields:
            element.append(_oracle_field(getattr(item, name), name))
        return element
    if isinstance(item, LindaTuple):
        element = ET.Element("tuple")
        element.extend(_oracle_field(value) for value in item.fields)
        return element
    element = ET.Element("template")
    for pattern in item.patterns:
        field = ET.Element("field")
        if pattern is ANY:
            field.set("type", "any")
        elif isinstance(pattern, type):
            field.set("type", "formal")
            field.text = pattern.__name__
        else:
            _oracle_value(field, pattern)
        element.append(field)
    return element


def _oracle_field(value, name=None):
    element = ET.Element("field", {} if name is None else {"name": name})
    _oracle_value(element, value)
    return element


def _oracle_value(element, value):
    if value is None:
        element.set("type", "none")
    elif isinstance(value, bool):
        element.set("type", "bool")
        element.text = "true" if value else "false"
    elif isinstance(value, int):
        element.set("type", "int")
        element.text = str(value)
    elif isinstance(value, float):
        element.set("type", "float")
        element.text = repr(value)
    elif isinstance(value, str):
        element.set("type", "str")
        element.text = value
    elif isinstance(value, bytes):
        element.set("type", "bytes")
        element.text = value.hex()
    elif isinstance(value, list):
        element.set("type", "list")
        element.extend(_oracle_field(member) for member in value)
    elif isinstance(value, tuple):
        element.set("type", "pytuple")
        element.extend(_oracle_field(member) for member in value)
    elif isinstance(value, dict):
        element.set("type", "dict")
        element.extend(_oracle_field(value[key], key) for key in sorted(value))
    elif isinstance(value, LindaTuple):
        element.set("type", "tuple")
        element.extend(_oracle_field(member) for member in value.fields)
    else:
        element.set("type", "entry")
        element.append(_oracle_element(value))


def oracle(kind, value):
    """What the ElementTree encoder writes, with CR in text as ``&#13;``
    (attribute values never carry a raw CR: ElementTree escapes it)."""
    if kind == "item":
        root = _oracle_element(value)
    else:
        if not value.params and value.item is None:
            return b""
        root = ET.Element("request")
        for key, param in sorted(value.params.items()):
            root.set(key, str(param))
        if value.item is not None:
            root.append(_oracle_element(value.item))
    return ET.tostring(root, encoding="utf-8").replace(b"\r", b"&#13;")


# -- golden bodies ----------------------------------------------------------------


def record():
    """The golden document for :func:`cases`, written by the oracle (to
    extend it: ``json.dumps(record(), indent=1, sort_keys=True)``)."""
    return {name: oracle(kind, value).decode("utf-8")
            for name, (kind, value) in cases().items()}


@pytest.mark.parametrize("name", sorted(cases()))
def test_writer_matches_recorded_elementtree_bytes(name):
    golden = json.loads(GOLDEN.read_text())
    kind, value = cases()[name]
    assert encode_case(kind, value, make_codec()) == golden[name].encode("utf-8")


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_oracle_matches_recorded_bytes(name):
    """The oracle is the encoder the golden bodies came from."""
    golden = json.loads(GOLDEN.read_text())
    kind, value = cases()[name]
    assert oracle(kind, value) == golden[name].encode("utf-8")


# -- the whole value model ------------------------------------------------------


def _is_xml_char(char):
    code = ord(char)
    return (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
            or 0xE000 <= code <= 0xFFFD or code >= 0x10000)


_xml_text = st.text(st.characters(codec="utf-8").filter(_is_xml_char), max_size=12)
_awkward_text = st.text(st.sampled_from('&<>"\r\n\t axé\U0001d11e'), max_size=8)
_text = _xml_text | _awkward_text

_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | _text | st.binary(max_size=8)
)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_text, children, max_size=4)
        | st.lists(children, min_size=1, max_size=4).map(lambda values: LindaTuple(*values))
        | st.builds(Block, children, children, children, children, children)
    )


_values = st.recursive(_scalars, _containers, max_leaves=12)
_patterns = _values | st.just(ANY) | st.sampled_from(
    [int, float, str, bool, bytes, list, tuple, dict, Block])
_items = (
    st.lists(_values, min_size=1, max_size=5).map(lambda values: LindaTuple(*values))
    | st.lists(_patterns, min_size=1, max_size=5).map(lambda values: TupleTemplate(*values))
    | st.builds(Block, _values, _values, _values, _values, _values)
)
_params = st.dictionaries(
    st.sampled_from(["lease", "timeout", "lease_id", "op_key", "text", "codecs"]),
    st.integers() | st.floats() | _text,
    max_size=3,
)
_messages = st.builds(
    Message, st.just(MessageType.WRITE), st.just(1), _params, st.none() | _items
)


@settings(max_examples=200)
@given(_items)
def test_writer_matches_elementtree_on_items(item):
    assert make_codec().encode(item) == oracle("item", item)


@settings(max_examples=100)
@given(_messages)
def test_writer_matches_elementtree_on_envelopes(message):
    assert XmlWireCodec(make_codec()).encode_body(message) == oracle("body", message)


_round_trip_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | _text | st.binary(max_size=8)
)


@settings(max_examples=100)
@given(st.lists(st.recursive(_round_trip_scalars, _containers, max_leaves=8),
                min_size=1, max_size=5))
def test_round_trip_keeps_every_string(values):
    """CR included: ``\\r`` and ``\\r\\n`` come back as sent."""
    codec = make_codec()
    item = LindaTuple(*values)
    assert codec.decode(codec.encode(item)) == item


# -- characters XML 1.0 cannot carry ----------------------------------------------

_NOT_XML = ["\x00", "\x0b", "\x1f", "\ud800", "\ufffe", "\uffff"]


@pytest.mark.parametrize("char", _NOT_XML, ids=[f"U+{ord(c):04X}" for c in _NOT_XML])
@pytest.mark.parametrize("where", ["text", "dict-key", "entry-text", "param"])
def test_unencodable_characters_are_rejected_at_encode(char, where):
    codec = make_codec()
    bad = f"x{char}y"
    with pytest.raises(ProtocolError, match="XML 1.0"):
        if where == "text":
            codec.encode(LindaTuple("k", bad))
        elif where == "dict-key":
            codec.encode(LindaTuple({bad: 1}))
        elif where == "entry-text":
            codec.encode(Block(name=[bad]))
        else:
            encode_message(Message(MessageType.WRITE, 1, {"op_key": bad}), codec)


def test_character_check_is_the_xml_char_production():
    """The writer's pattern rejects exactly the characters outside XML
    1.0's ``Char``, and skips ``str.isprintable()`` strings: every
    excluded character is a control, a surrogate or a noncharacter,
    none of them printable."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    excluded = {char for char in every if not _is_xml_char(char)}
    assert set(re.findall(_NOT_XML_CHAR, every)) == excluded
    assert not any(char.isprintable() for char in excluded)


def test_carriage_return_in_text_is_a_character_reference():
    codec = make_codec()
    assert codec.encode(LindaTuple("a\rb")) == (
        b'<tuple><field type="str">a&#13;b</field></tuple>'
    )
    assert ET.fromstring(b"<a>x&#13;y</a>").text == "x\ry"
