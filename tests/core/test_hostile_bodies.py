"""Message bodies both codecs must refuse with ``ProtocolError``.

Each test here failed before its fix:

* the binary codec took any tagged value as a message item (``[]``,
  ``1``, ``'a'``) and the space stored it, where the XML codec accepts
  only ``<entry>``, ``<tuple>`` and ``<template>``;
* nesting past the interpreter's recursion limit escaped both codecs as
  ``RecursionError``, which the connection core does not catch, so the
  server sent no ERROR reply and left the connection open;
* a bad XML scalar literal (an int, float or bytes field that does not
  parse, or an int past the interpreter's digit limit) escaped the XML
  codec as ``ValueError`` the same way, in a tuple and in a template;
* the XML reader dropped stray content: text or an element where the
  writer writes none (``<field type="str">st<b>x</b>01</field>`` read
  as ``'st'``), so the server acked a value the client never sent;
* an XML tuple or template of no members escaped as ``ValueError``;
* so did a binary one (bodies ``00 01 0a 00`` and ``00 01 0c 00``), and
  the asyncio server dropped the connection without an ERROR reply.
"""

import asyncio
import sys

import pytest

from repro.core import SpaceServer, TupleSpace, XmlCodec
from repro.core.bincodec import BinaryCodec, BinaryWireCodec
from repro.core.errors import ProtocolError
from repro.core.protocol import (
    HEADER,
    MAGIC,
    Message,
    MessageType,
    StreamParser,
    XmlWireCodec,
    encode_message,
)
from repro.core.aio import AsyncSpaceServer
from tests.core.test_binary_wire_identity import Part
from repro.core.server import NullTimers
from repro.core.transports import LocalConnection

#: Tagged values that are not items: an empty list, the int 1, "a".
NON_ITEMS = {
    "list": b"\x07\x00",
    "int": b"\x03\x02",
    "str": b"\x05\x01a",
}

#: Deep enough to pass the recursion limit whatever the caller's depth.
DEPTH = sys.getrecursionlimit()
#: A one-field tuple holding DEPTH nested one-member lists around None.
DEEP_BINARY_ITEM = b"\x0a\x01" + b"\x07\x01" * DEPTH + b"\x00"
DEEP_XML_ITEM = (
    "<tuple>" + '<field type="list">' * DEPTH + '<field type="none"/>'
    + "</field>" * DEPTH + "</tuple>"
).encode("ascii")
DEEP_XML_BODY = b"<request>" + DEEP_XML_ITEM + b"</request>"


def binary_body(item: bytes) -> bytes:
    """A message body with no params and ``item`` present."""
    return b"\x00\x01" + item


def frame(msg_type: MessageType, request_id: int, body: bytes) -> bytes:
    return HEADER.pack(MAGIC, int(msg_type), request_id, len(body)) + body


def open_session(codec_name: str):
    """A loopback connection that negotiated ``codec_name``."""
    registry = XmlCodec()
    space = TupleSpace()
    connection = LocalConnection(
        SpaceServer(space, registry, timers=NullTimers())
    )
    hello = Message(MessageType.HELLO, 1, {"codecs": codec_name})
    connection.send_bytes(encode_message(hello, registry))
    (ack,) = StreamParser(registry).feed(connection.recv_bytes())
    assert ack.params["codec"] == codec_name
    wire = BinaryWireCodec(registry) if codec_name == "binary" else registry
    return connection, space, StreamParser(wire)


def assert_error_then_close(connection, parser, request_id: int) -> str:
    (reply,) = parser.feed(connection.recv_bytes())
    assert reply.msg_type is MessageType.ERROR
    assert reply.request_id == request_id
    assert connection.closed
    return reply.params["text"]


class TestBinaryItemIsEntryTupleOrTemplate:
    @pytest.mark.parametrize("item", NON_ITEMS.values(), ids=NON_ITEMS.keys())
    def test_codec_refuses_a_non_item(self, item):
        registry = XmlCodec()
        with pytest.raises(ProtocolError, match="entry, tuple or template"):
            BinaryWireCodec(registry).decode_body(
                MessageType.WRITE, 1, binary_body(item)
            )
        with pytest.raises(ProtocolError, match="entry, tuple or template"):
            BinaryCodec(registry).decode(item)

    @pytest.mark.parametrize("item", NON_ITEMS.values(), ids=NON_ITEMS.keys())
    def test_server_answers_error_and_stores_nothing(self, item):
        connection, space, parser = open_session("binary")
        connection.send_bytes(frame(MessageType.WRITE, 7, binary_body(item)))
        text = assert_error_then_close(connection, parser, 7)
        assert "entry, tuple or template" in text
        assert len(space) == 0


class TestDeepNestingIsAProtocolError:
    def test_binary_codec(self):
        registry = XmlCodec()
        with pytest.raises(ProtocolError, match="nested too deeply"):
            BinaryCodec(registry).decode(DEEP_BINARY_ITEM)
        with pytest.raises(ProtocolError, match="nested too deeply"):
            BinaryWireCodec(registry).decode_body(
                MessageType.WRITE, 1, binary_body(DEEP_BINARY_ITEM)
            )

    def test_xml_codec(self):
        registry = XmlCodec()
        with pytest.raises(ProtocolError, match="nested too deeply"):
            registry.decode(DEEP_XML_ITEM)
        with pytest.raises(ProtocolError, match="nested too deeply"):
            XmlWireCodec(registry).decode_body(
                MessageType.WRITE, 1, DEEP_XML_BODY
            )

    @pytest.mark.parametrize(
        "codec_name, body",
        [("binary", binary_body(DEEP_BINARY_ITEM)), ("xml", DEEP_XML_BODY)],
        ids=["binary", "xml"],
    )
    def test_server_answers_error_then_closes(self, codec_name, body):
        connection, space, parser = open_session(codec_name)
        connection.send_bytes(frame(MessageType.WRITE, 9, body))
        text = assert_error_then_close(connection, parser, 9)
        assert "nested too deeply" in text
        assert len(space) == 0


#: Scalar fields whose literal does not parse as their type.
BAD_LITERALS = {
    "int": '<field type="int">abc</field>',
    "float": '<field type="float">1.5x</field>',
    "bytes": '<field type="bytes">zz</field>',
    "long_int": '<field type="int">' + "9" * 4301 + "</field>",
}

#: ``id -> (message type, XML body)``: each bad literal in a written
#: tuple and in a read template, beside a well-formed field.
BAD_LITERAL_BODIES = {
    f"{container}_{kind}": (
        msg_type,
        (
            f'<request><{container}><field type="str">ok</field>{field}'
            f"</{container}></request>"
        ).encode("ascii"),
    )
    for kind, field in BAD_LITERALS.items()
    for container, msg_type in (
        ("tuple", MessageType.WRITE), ("template", MessageType.READ_IF_EXISTS),
    )
}


class TestBadScalarLiteralIsAProtocolError:
    @pytest.mark.parametrize("field", BAD_LITERALS.values(), ids=BAD_LITERALS.keys())
    def test_xml_codec(self, field):
        registry = XmlCodec()
        for container in ("tuple", "template"):
            item = f"<{container}>{field}</{container}>".encode("ascii")
            with pytest.raises(ProtocolError, match="bad .* literal"):
                registry.decode(item)

    @pytest.mark.parametrize(
        "msg_type, body", BAD_LITERAL_BODIES.values(), ids=BAD_LITERAL_BODIES.keys()
    )
    def test_server_answers_error_then_closes(self, msg_type, body):
        connection, space, parser = open_session("xml")
        connection.send_bytes(frame(msg_type, 11, body))
        text = assert_error_then_close(connection, parser, 11)
        assert "literal" in text
        assert len(space) == 0

    @pytest.mark.parametrize(
        "msg_type, body", BAD_LITERAL_BODIES.values(), ids=BAD_LITERAL_BODIES.keys()
    )
    def test_async_server_answers_error_then_closes(self, msg_type, body):
        registry = XmlCodec()
        space = TupleSpace()

        async def scenario():
            front = AsyncSpaceServer(SpaceServer(space, registry), port=0)
            await front.start()
            try:
                reader, writer = await asyncio.open_connection(*front.address)
                writer.write(frame(msg_type, 13, body))
                await writer.drain()
                parser = StreamParser(registry)
                replies = []
                while not replies:
                    data = await asyncio.wait_for(reader.read(65536), 2.0)
                    assert data, "closed without ERROR reply"
                    replies.extend(parser.feed(data))
                assert await asyncio.wait_for(reader.read(65536), 2.0) == b""
                writer.close()
                return replies, front.protocol_errors
            finally:
                await front.stop()

        replies, protocol_errors = asyncio.run(scenario())
        assert [reply.msg_type for reply in replies] == [MessageType.ERROR]
        assert replies[0].request_id == 13
        assert "literal" in replies[0].params["text"]
        assert protocol_errors == 1
        assert len(space) == 0


def _part(station_field: str) -> bytes:
    return (
        '<request><entry class="Part"><field name="key" type="int">1</field>'
        f'{station_field}<field name="weight" type="none" /></entry></request>'
    ).encode("utf-8")


#: ``id -> (XML body, what the error names)``: content where the writer
#: writes none, each refused where it used to be dropped.
STRAY_CONTENT = {
    "element_in_str": (
        _part('<field name="station" type="str">st<b>x</b>01</field>'), "holds an element"),
    "text_in_list": (
        b'<request><tuple><field type="list">hello<field type="int">1</field>'
        b"</field></tuple></request>", "stray text 'hello' in list <field>"),
    "text_in_request": (
        b'<request>x<tuple><field type="int">1</field></tuple></request>',
        "stray text 'x' in <request>"),
    "tail_in_request": (
        b'<request><tuple><field type="int">1</field></tuple>y</request>',
        "stray text 'y' in <request>"),
    "text_in_entry": (
        _part('z<field name="station" type="none" />'), "stray text 'z' in <entry>"),
    "text_between_fields": (
        b'<request><tuple><field type="int">1</field>,<field type="int">2</field>'
        b"</tuple></request>", "stray text ',' in <tuple>"),
    "text_in_template": (
        b'<request><template>t<field type="any" /></template></request>',
        "stray text 't' in <template>"),
    "text_in_dict": (
        b'<request><tuple><field type="dict">d<field name="k" type="int">1</field>'
        b"</field></tuple></request>", "stray text 'd' in dict <field>"),
    "element_in_int": (
        b'<request><tuple><field type="int">1<field type="int">2</field></field>'
        b"</tuple></request>", "int <field> holds an element"),
    "element_in_none": (
        b'<request><tuple><field type="none"><field type="int">2</field></field>'
        b"</tuple></request>", "none <field> holds an element"),
    "text_in_none": (
        b'<request><tuple><field type="none">q</field></tuple></request>',
        "stray text 'q' in none <field>"),
    "element_in_any": (
        b'<request><template><field type="any"><field type="int">2</field></field>'
        b"</template></request>", "any <field> holds an element"),
    "element_in_formal": (
        b'<request><template><field type="formal">int<a /></field></template></request>',
        "formal <field> holds an element"),
    "empty_tuple": (b"<request><tuple /></request>", "a tuple needs at least one field"),
    "empty_tuple_field": (
        b'<request><tuple><field type="tuple" /></tuple></request>',
        "a tuple needs at least one field"),
    "empty_template": (
        b"<request><template /></request>", "a template needs at least one pattern"),
}


def part_registry() -> XmlCodec:
    registry = XmlCodec()
    registry.register(Part)
    return registry


class TestStrayContentIsAProtocolError:
    @pytest.mark.parametrize("body, error", STRAY_CONTENT.values(), ids=STRAY_CONTENT.keys())
    def test_xml_codec(self, body, error):
        registry = part_registry()
        with pytest.raises(ProtocolError) as raised:
            XmlWireCodec(registry).decode_body(MessageType.WRITE, 1, body)
        assert error in str(raised.value)
        if "<request>" not in error:  # the item alone is refused too
            item = body.removeprefix(b"<request>").removesuffix(b"</request>")
            with pytest.raises(ProtocolError) as raised:
                registry.decode(item)
            assert error in str(raised.value)

    def test_whitespace_layout_is_read(self):
        registry = part_registry()
        compact = XmlWireCodec(registry).encode_body(
            Message(MessageType.WRITE, 1, {"lease": 5}, Part(1, "st01", [2.5, None])))
        spaced = compact.replace(b"><", b">\n\t <")
        assert spaced != compact
        wire = XmlWireCodec(registry)
        assert (wire.decode_body(MessageType.WRITE, 1, spaced)
                == wire.decode_body(MessageType.WRITE, 1, compact))

    @pytest.mark.parametrize(
        "body, error",
        [STRAY_CONTENT[name] for name in ("element_in_str", "text_in_list", "empty_tuple")],
        ids=["element_in_str", "text_in_list", "empty_tuple"],
    )
    def test_async_server_answers_error_then_closes(self, body, error):
        registry = part_registry()
        space = TupleSpace()

        async def scenario():
            front = AsyncSpaceServer(SpaceServer(space, registry), port=0)
            await front.start()
            try:
                reader, writer = await asyncio.open_connection(*front.address)
                writer.write(frame(MessageType.WRITE, 17, body))
                await writer.drain()
                parser = StreamParser(registry)
                replies = []
                while not replies:
                    data = await asyncio.wait_for(reader.read(65536), 2.0)
                    assert data, "closed without ERROR reply"
                    replies.extend(parser.feed(data))
                assert await asyncio.wait_for(reader.read(65536), 2.0) == b""
                writer.close()
                return replies, front.protocol_errors
            finally:
                await front.stop()

        replies, protocol_errors = asyncio.run(scenario())
        assert [reply.msg_type for reply in replies] == [MessageType.ERROR]
        assert replies[0].request_id == 17
        assert error in replies[0].params["text"]
        assert protocol_errors == 1
        assert len(space) == 0


#: ``id -> (binary item, what the error says)``: items of no members.
EMPTY_BINARY_ITEMS = {
    "tuple": (b"\x0a\x00", "a tuple needs at least one field"),
    "template": (b"\x0c\x00", "a template needs at least one pattern"),
    "tuple_field": (b"\x0a\x01\x0a\x00", "a tuple needs at least one field"),
}


class TestEmptyBinaryItemIsAProtocolError:
    @pytest.mark.parametrize(
        "item, error", EMPTY_BINARY_ITEMS.values(), ids=EMPTY_BINARY_ITEMS.keys()
    )
    def test_binary_codec(self, item, error):
        registry = XmlCodec()
        with pytest.raises(ProtocolError, match=error):
            BinaryWireCodec(registry).decode_body(
                MessageType.WRITE, 1, binary_body(item)
            )
        with pytest.raises(ProtocolError, match=error):
            BinaryCodec(registry).decode(item)

    @pytest.mark.parametrize(
        "item, error", EMPTY_BINARY_ITEMS.values(), ids=EMPTY_BINARY_ITEMS.keys()
    )
    def test_async_server_answers_error_then_closes(self, item, error):
        registry = XmlCodec()
        space = TupleSpace()

        async def scenario():
            front = AsyncSpaceServer(SpaceServer(space, registry), port=0)
            await front.start()
            try:
                reader, writer = await asyncio.open_connection(*front.address)
                parser = StreamParser(registry)

                async def replies_after(data: bytes, count: int) -> list:
                    writer.write(data)
                    await writer.drain()
                    replies = []
                    while len(replies) < count:
                        data = await asyncio.wait_for(reader.read(65536), 2.0)
                        assert data, "closed without a reply"
                        replies.extend(parser.feed(data))
                    return replies

                hello = Message(MessageType.HELLO, 1, {"codecs": "binary"})
                replies = await replies_after(encode_message(hello, registry), 1)
                parser.set_codec(BinaryWireCodec(registry))
                replies += await replies_after(
                    frame(MessageType.WRITE, 19, binary_body(item)), 1
                )
                assert await asyncio.wait_for(reader.read(65536), 2.0) == b""
                writer.close()
                return replies, front.protocol_errors
            finally:
                await front.stop()

        replies, protocol_errors = asyncio.run(scenario())
        assert [reply.msg_type for reply in replies] == [
            MessageType.HELLO_ACK, MessageType.ERROR,
        ]
        assert replies[1].request_id == 19
        assert error in replies[1].params["text"]
        assert protocol_errors == 1
        assert len(space) == 0
