"""XML decode plans read exactly what the general reader reads.

A request body in the writer's own layout whose entry is of a
registered class is decoded by that class's plan; every other body goes
to ElementTree.  Over registered classes (``Größe``'s names are not
ASCII, ``Checked`` refuses some values with ``TypeError``), canonical
bodies and bodies with permuted, dropped, duplicated and renamed
fields, escaped text, empty strings and lists, nested entries, tuple and
template items, every truncation of them, each with one byte more or
one byte or whitespace inserted, and hand-written near misses of the
writer's layout must decode to equal messages, or fail with the same
:class:`ProtocolError` text, with plans and without.  A work budget pins
the plans in use: the churn pair and a ``Part`` read build no element
tree.
"""

import json
import pathlib
from unittest import mock
import xml.etree.ElementTree as ET

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import ANY, Entry, LindaTuple, SpaceServer, TupleSpace, TupleTemplate, XmlCodec
from repro.core.errors import ProtocolError
from repro.core.protocol import HEADER, Message, MessageType, XmlWireCodec, encode_message
from repro.core.server import NullTimers
from repro.core.transports import LocalConnection
from repro.core.xmlcodec import escape_attrib
from repro.cosim.scenarios import MachineParameters

from tests.core import test_xml_wire_identity as xml_cases
from tests.core.test_bincodec_plans import CLASSES
from tests.core.test_binary_wire_identity import Part, wire_value

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "golden" / "xml_wire_bodies.json"


def make_registry():
    registry = XmlCodec()
    for entry_class in (*CLASSES, MachineParameters):
        registry.register(entry_class)
    return registry


PLANNED = make_registry()
#: Reads every body with ElementTree alone: no entry plan and no
#: planned read of a bare ``<request … />`` either.
GENERAL = make_registry()
GENERAL.read_planned_request = lambda body: None


def _is_xml_char(char):
    code = ord(char)
    return (code in (0x9, 0xA, 0xD) or 0x20 <= code <= 0xD7FF
            or 0xE000 <= code <= 0xFFFD or code >= 0x10000)


text = st.text(st.characters(codec="utf-8").filter(_is_xml_char), max_size=6) | st.text(
    st.sampled_from('&<>"\r\n\t ]xé\U0001d11e'), max_size=6)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    text,
    st.binary(max_size=4),
)
#: Values a plan reads.
plain = st.one_of(
    scalars, st.lists(scalars, max_size=3), st.lists(scalars, max_size=3).map(tuple)
)
#: Values whose body only the general reader reads.
nested = st.one_of(
    st.lists(st.lists(scalars, max_size=2), min_size=1, max_size=2),
    st.builds(Part, scalars, scalars, scalars),
    st.lists(scalars, min_size=1, max_size=2).map(lambda members: LindaTuple(*members)),
)
values = st.one_of(plain, plain, plain, nested)
params = st.dictionaries(
    st.sampled_from(["lease", "timeout", "op_key", "text"]),
    st.integers() | st.floats(allow_nan=False) | text,
    max_size=2,
)
#: ``<request>`` attributes in any order, a name maybe given twice or
#: declaring a namespace.
attributes = st.lists(st.tuples(
    st.sampled_from(["lease", "timeout", "text", "xmlns", "a.b-c", "_x"]),
    st.integers() | st.text("ab .", max_size=3) | text,
), max_size=3)

#: Fields the writer never writes: a literal where it writes none, none
#: where it writes one, whitespace, a member in a literal, unknown kinds.
ODD_KINDS = ["none", "str", "int", "float", "bool", "bytes", "list", "pytuple",
             "dict", "tuple", "entry", "any", "formal", "weird"]
ODD_ENDS = [" />", "/>", ">x</field>", "></field>", "> 5</field>", ">True</field>",
            ">true</field>", ">0a</field>", "> </field>", ">int</field>",
            '><field type="int">1</field>x</field>', '> <field type="int">1</field></field>']
odd_fields = st.tuples(st.sampled_from(ODD_KINDS), st.sampled_from(ODD_ENDS))


def field(value, name=None) -> str:
    out: list[str] = []
    PLANNED._write_field(out, value, "" if name is None else f' name="{escape_attrib(name)}"')
    return "".join(out)


def request(pairs: list, item: str) -> bytes:
    """A ``<request>`` of ``(name, value)`` attributes in the order
    given, around ``item``."""
    written = "".join(f' {key}="{escape_attrib(str(value))}"' for key, value in pairs)
    return f"<request{written}>{item}</request>".encode("utf-8")


class Odd(str):
    """A field element written by hand, not by the writer."""


def element(name: str, value) -> str:
    if isinstance(value, Odd):
        return f'<field name="{escape_attrib(name)}" type="{value}'
    return field(value, name)


@st.composite
def entry_items(draw):
    """An entry of a registered class: canonical, or one edit away."""
    entry_class = draw(st.sampled_from(CLASSES))
    fields = [(name, draw(values)) for name in entry_class._fields]
    edit = draw(st.sampled_from(
        ("canonical", "canonical", "permute", "drop", "duplicate", "rename", "odd")))
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
    elif edit == "odd":
        i = draw(st.integers(0, len(fields) - 1))
        kind, end = draw(odd_fields)
        fields[i] = (fields[i][0], Odd(f'{kind}"{end}'))
    head = f'<entry class="{escape_attrib(entry_class.__name__)}">'
    return head + "".join(element(name, value) for name, value in fields) + "</entry>"


other_items = st.one_of(
    st.lists(values, min_size=1, max_size=3).map(
        lambda members: "<tuple>" + "".join(field(m) for m in members) + "</tuple>"),
    st.lists(values | st.just(ANY) | st.sampled_from([int, str]), min_size=1, max_size=3).map(
        lambda patterns: PLANNED.encode(TupleTemplate(*patterns)).decode("utf-8")),
)

sorted_params = params.map(lambda drawn: sorted(drawn.items()))
bodies = st.one_of(
    params.map(lambda drawn: XmlWireCodec(PLANNED).encode_body(
        Message(MessageType.WRITE_ACK, 1, drawn))),
    st.builds(request, sorted_params, entry_items()),
    st.builds(request, attributes, st.builds(Part, plain, plain, plain).map(
        lambda entry: PLANNED.encode(entry).decode("utf-8"))),
    st.builds(request, sorted_params, other_items),
)

#: One byte more: markup, an escape, bad UTF-8, a character XML
#: excludes, a noncharacter.
extra_bytes = st.sampled_from(
    [b"x", b"<", b">", b"&", b"]]>", b'"', b"\x00", b"\x01", b"\xc3", "\ufffe".encode()])


def outcome(registry: XmlCodec, body: bytes):
    try:
        message = XmlWireCodec(registry).decode_body(MessageType.WRITE, 7, body)
    except ProtocolError as exc:
        return "error", str(exc)
    return "message", wire_value(message.params), wire_value(message.item)


def agree(body: bytes) -> None:
    assert outcome(PLANNED, body) == outcome(GENERAL, body), body


@settings(max_examples=200, deadline=None)
@given(bodies, st.data())
def test_plans_and_the_general_reader_agree(body, data):
    for end in range(len(body)):
        agree(body[:end])
    agree(body)
    extra = data.draw(extra_bytes)
    space = data.draw(st.sampled_from([b" ", b"\t", b"\r\n"]))
    agree(body + extra)
    # Anywhere, and wherever a tag starts or ends.
    edges = {at for at in range(len(body) + 1)
             if body[at - 1 : at] == b">" or body[at : at + 1] == b"<"}
    for at in sorted(edges | {data.draw(st.integers(0, len(body)))}):
        agree(body[:at] + extra + body[at:])
        agree(body[:at] + space + body[at:])


def near_misses() -> dict:
    """``{id: body}``: bodies a step from the writer's layout, by hand."""
    part = ('<request{attributes}><entry class="Part"><field name="key" type="int">1</field>'
            '{station}<field name="weight" type="float">2.5</field></entry>{tail}</request>')
    station = '<field name="station" type="str">st01</field>'
    bodies = {
        f"{kind}{end}": part.format(
            attributes="", tail="", station=f'<field name="station" type="{kind}"{end}')
        for kind in ODD_KINDS for end in ODD_ENDS
    }
    for attributes in [' lease="1\x01"', ' lease="a\tb"', ' lease="a\nb"', ' lease="a>b"',
                       ' lease="a&amp;b"', ' lease="&#10;"', ' xmlns=""', ' xmlns:a="u"',
                       ' a:b="1"', ' lease="1" lease="2"', '  lease="1"', ' lease = "1"',
                       " lease='1'", ' lease="1" text="\ufffe"', ' lease="1"/']:
        bodies[attributes] = part.format(attributes=attributes, tail="", station=station)
    for tail in [" ", "x", "<!-- c -->", "<?pi?>"]:
        bodies[f"tail {tail}"] = part.format(attributes="", tail=tail, station=station)
    for text in ["st\x01", "st\x0b", "st\x1f", "st\x7f", "st\ufffe", "st\r", "]]>",
                 "a&amp;b", "a&#13;", "\t\n"]:
        bodies[f"text {text!r}"] = part.format(
            attributes="", tail="", station=f'<field name="station" type="str">{text}</field>')
    for bare in ['<request lease="1" />', '<request lease="1" /> ', '<request lease="1" />x',
                 '<request lease="1"/>', '<request lease="1"></request>', "<request />"]:
        bodies[bare] = bare
    bodies["checked str"] = (
        '<request><entry class="Checked"><field name="count" type="str">x</field></entry>'
        "</request>")
    bodies["nested list"] = part.format(attributes="", tail="", station=(
        '<field name="station" type="list"><field type="list"><field type="int">1</field>'
        "</field></field>"))
    return {name: body.encode("utf-8") for name, body in bodies.items()}


NEAR_MISSES = near_misses()


@pytest.mark.parametrize("body", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_near_misses_read_the_same_with_plans_and_without(body):
    agree(body)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CLASSES).flatmap(lambda cls: st.tuples(
    st.just(cls), params,
    st.lists(scalars | st.lists(scalars, max_size=3), min_size=len(cls._fields),
             max_size=len(cls._fields)))))
def test_a_canonical_body_never_reaches_elementtree(drawn):
    entry_class, message_params, field_values = drawn
    try:
        entry = entry_class(**dict(zip(entry_class._fields, field_values)))
    except TypeError:
        assume(False)
    wire = XmlWireCodec(PLANNED)
    body = wire.encode_body(Message(MessageType.WRITE, 1, message_params, entry))
    # An escape is the general reader's to read: the plan takes a
    # literal only where a parser reads it back unchanged.
    assume(b"&" not in body)
    with mock.patch.object(ET, "fromstring", side_effect=AssertionError):
        message = wire.decode_body(MessageType.WRITE, 1, body)
    assert wire_value(message.item) == wire_value(entry)
    assert message.params == {key: str(value) for key, value in message_params.items()}


def test_a_class_registered_elsewhere_under_the_same_name_is_not_planned():
    """Plans belong to their registry: the same head decodes to each
    registry's own class."""

    class Part(Entry):  # the same name as the shared registry's Part
        def __init__(self, key=None, station=None, weight=None):
            self.key, self.station, self.weight = key, station, weight

    other = XmlCodec()
    other.register(Part)
    body = XmlWireCodec(other).encode_body(Message(MessageType.WRITE, 1, {}, Part(1, "a", 2.0)))
    assert type(XmlWireCodec(other).decode_body(MessageType.WRITE, 1, body).item) is Part
    assert type(XmlWireCodec(PLANNED).decode_body(MessageType.WRITE, 1, body).item) is not Part


def test_the_churn_pair_and_a_part_read_build_no_element_tree(monkeypatch):
    """Work budget: the writer's own churn WRITE and TAKE_IF_EXISTS and
    a ``Part`` read decode with no ``ET.fromstring`` call and no
    ``XMLParser`` built, on the server and on the client, so a plan that
    always declined would fail here; the replies to the churn pair are
    the golden bytes."""
    golden = json.loads(GOLDEN.read_text())
    registry = make_registry()
    # Lease ids are (epoch << 32) + write number: the churn write is the
    # fifth, as the golden WRITE_ACK's lease id says.
    space = TupleSpace()
    connection = LocalConnection(
        SpaceServer(space, registry, timers=NullTimers(), lease_epoch=1))
    requests = [Message(MessageType.WRITE, 10 + key, {}, Part(key, f"st{key:02d}", 1.5))
                for key in range(4)]
    requests.append(Message(MessageType.READ_IF_EXISTS, 14, {}, Part(key=2)))
    cases = xml_cases.cases()
    churn = [cases["churn-write"][1], cases["churn-take"][1]]
    for name, message in zip(("churn-write", "churn-take"), churn):
        assert XmlWireCodec(registry).encode_body(message) == golden[name].encode("utf-8")

    built = []
    real_fromstring, real_parser = ET.fromstring, ET.XMLParser

    def fromstring(*args, **kwargs):
        built.append("fromstring")
        return real_fromstring(*args, **kwargs)

    def parser(*args, **kwargs):
        built.append("XMLParser")
        return real_parser(*args, **kwargs)

    monkeypatch.setattr(ET, "fromstring", fromstring)
    monkeypatch.setattr(ET, "XMLParser", parser)
    for message in requests + churn:
        connection.send_bytes(encode_message(message, registry))
    data = connection.recv_bytes()
    replies = XmlWireCodec(registry)
    frames = []
    while data:
        _, raw_type, request_id, length = HEADER.unpack_from(data)
        body = data[HEADER.size : HEADER.size + length]
        frames.append(body)
        replies.decode_body(MessageType(raw_type), request_id, body)
        data = data[HEADER.size + length :]
    assert built == []

    assert len(frames) == 7
    assert frames[4] == XmlWireCodec(registry).encode_body(
        Message(MessageType.RESULT_ENTRY, 14, {}, Part(2, "st02", 1.5)))
    write_ack, result = frames[5:]
    assert write_ack == golden["churn-write-ack"].encode("utf-8")
    assert result == golden["churn-result-entry"].encode("utf-8")
    assert len(space) == 4
