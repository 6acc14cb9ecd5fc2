"""Message bodies both codecs must refuse with ``ProtocolError``.

Each test here failed before its fix:

* the binary codec took any tagged value as a message item (``[]``,
  ``1``, ``'a'``) and the space stored it, where the XML codec accepts
  only ``<entry>``, ``<tuple>`` and ``<template>``;
* nesting past the interpreter's recursion limit escaped both codecs as
  ``RecursionError``, which the connection core does not catch, so the
  server sent no ERROR reply and left the connection open.
"""

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
