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
  codec as ``ValueError`` the same way, in a tuple and in a template.
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
