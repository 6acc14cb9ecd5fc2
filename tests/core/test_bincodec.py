"""Binary body codec: round-trips, XML equivalence, strict decoding."""

import pytest

from repro.core import (
    ANY,
    Entry,
    LindaTuple,
    SpaceClient,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core.bincodec import BinaryCodec, BinaryWireCodec
from repro.core.errors import ProtocolError
from repro.core.protocol import (
    Message,
    MessageType,
    StreamParser,
    encode_message,
    make_wire_codec,
    negotiate_codec,
)
from repro.core.transports import make_threaded_server, open_socket_connection


class Part(Entry):
    def __init__(self, serial=None, station=None, weight=None):
        self.serial = serial
        self.station = station
        self.weight = weight


@pytest.fixture
def registry():
    codec = XmlCodec()
    codec.register(Part)
    return codec


@pytest.fixture
def bin_codec(registry):
    return BinaryCodec(registry)


class TestValueRoundTrips:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            7,
            2**80,
            -(2**80),
            3.25,
            -0.0,
            "héllo",
            "",
            b"\x00\xff raw",
            [1, "two", None],
            (1, 2),
            ("nested", (3, [4, (5,)])),
            {"a": 1, "b": [True, None]},
            [],
            (),
            {},
        ],
    )
    def test_tuple_field_roundtrip(self, bin_codec, value):
        item = LindaTuple("k", value)
        back = bin_codec.decode(bin_codec.encode(item))
        assert back == item
        assert type(back.fields[1]) is type(value)

    def test_entry_roundtrip(self, bin_codec):
        part = Part("sn-9", "drill", 2.5)
        assert bin_codec.decode(bin_codec.encode(part)) == part

    def test_template_roundtrip(self, bin_codec):
        template = TupleTemplate("job", ANY, int, 3.5)
        back = bin_codec.decode(bin_codec.encode(template))
        assert back.patterns == template.patterns

    def test_entry_nested_in_tuple(self, bin_codec):
        item = LindaTuple("wrap", Part("sn-1", "mill", 1.0))
        assert bin_codec.decode(bin_codec.encode(item)) == item

    def test_unregistered_entry_class_rejected(self, registry):
        codec = BinaryCodec(XmlCodec())  # empty registry
        data = BinaryCodec(registry).encode(Part("sn-1"))
        with pytest.raises(ProtocolError, match="Part"):
            codec.decode(data)


class TestXmlEquivalence:
    """Whatever the XML codec carries, the binary codec carries identically."""

    @pytest.mark.parametrize(
        "item",
        [
            LindaTuple("k", 1, 2.5, "s", None, True, b"x", [1], (2, 3), {"d": 1}),
            Part("sn-1", "drill", 2.5),
            TupleTemplate("job", ANY, str),
        ],
    )
    def test_same_object_both_wires(self, registry, bin_codec, item):
        via_xml = registry.decode(registry.encode(item))
        via_bin = bin_codec.decode(bin_codec.encode(item))
        if isinstance(item, TupleTemplate):
            # Templates compare by identity; equivalence is patterns.
            assert via_xml.patterns == via_bin.patterns == item.patterns
        else:
            assert via_xml == via_bin == item


class TestStrictDecoding:
    def test_truncated_payload(self, bin_codec):
        data = bin_codec.encode(LindaTuple("k", "value"))
        for cut in range(1, len(data)):
            with pytest.raises(ProtocolError):
                bin_codec.decode(data[:cut])

    def test_trailing_garbage(self, bin_codec):
        data = bin_codec.encode(LindaTuple("k", 1))
        with pytest.raises(ProtocolError, match="trailing"):
            bin_codec.decode(data + b"\x00")

    def test_unknown_tag(self, bin_codec):
        with pytest.raises(ProtocolError, match="unknown binary tag"):
            bin_codec.decode(b"\x7f")

    def test_pattern_tag_outside_template(self, bin_codec):
        with pytest.raises(ProtocolError, match="pattern tag"):
            bin_codec.decode(b"\x0d")

    def test_bad_utf8(self, bin_codec):
        # TAG_TUPLE, 1 field, TAG_STR, length 2, invalid UTF-8
        with pytest.raises(ProtocolError, match="UTF-8"):
            bin_codec.decode(b"\x0a\x01\x05\x02\xff\xfe")

    def test_varint_continuation_bomb(self, bin_codec):
        # TAG_INT, then a varint of 8192 continuation bytes
        with pytest.raises(ProtocolError, match="varint"):
            bin_codec.decode(b"\x03" + b"\x80" * 8192 + b"\x00")

    @pytest.mark.parametrize(
        "wire, body",
        [
            (
                "xml",
                b'<entry class="Part"><field name="serial" type="int">1</field>'
                b'<field name="serial" type="int">2</field></entry>',
            ),
            # TAG_ENTRY "Part", 2 fields: "serial" = int 1, "serial" = int 2
            ("binary", b"\x0b\x04Part\x02\x06serial\x03\x02\x06serial\x03\x04"),
        ],
        ids=["xml", "binary"],
    )
    def test_field_named_twice_is_refused(self, registry, bin_codec, wire, body):
        codec = registry if wire == "xml" else bin_codec
        with pytest.raises(ProtocolError, match="'serial' given twice"):
            codec.decode(body)

    def test_big_int_varint_is_legal(self, bin_codec):
        # The bomb guard must not reject genuine big ints.
        item = LindaTuple("k", 2**600)
        assert bin_codec.decode(bin_codec.encode(item)) == item


class TestWireCodec:
    def test_message_roundtrip(self, registry):
        wire = BinaryWireCodec(registry)
        message = Message(
            MessageType.WRITE, 7, {"lease": 60, "op_key": "a:1"}, Part("sn-1")
        )
        body = wire.encode_body(message)
        back = wire.decode_body(MessageType.WRITE, 7, body)
        assert back.params == {"lease": "60", "op_key": "a:1"}
        assert back.item == Part("sn-1")

    def test_empty_message_has_empty_body(self, registry):
        wire = BinaryWireCodec(registry)
        assert wire.encode_body(Message(MessageType.PING, 1)) == b""
        back = wire.decode_body(MessageType.PING, 1, b"")
        assert back.params == {} and back.item is None

    def test_binary_body_smaller_than_xml(self, registry):
        item = Part("sn-123456", "drill", 2.5)
        message = Message(MessageType.WRITE, 1, {"lease": 60}, item)
        xml_len = len(make_wire_codec("xml", registry).encode_body(message))
        bin_len = len(make_wire_codec("binary", registry).encode_body(message))
        assert bin_len < xml_len

    def test_bad_item_flag(self, registry):
        wire = BinaryWireCodec(registry)
        with pytest.raises(ProtocolError, match="item flag"):
            wire.decode_body(MessageType.PING, 1, b"\x00\x07")

    def test_trailing_bytes_after_body(self, registry):
        wire = BinaryWireCodec(registry)
        body = wire.encode_body(Message(MessageType.WRITE, 1, {}, Part("x")))
        with pytest.raises(ProtocolError, match="trailing"):
            wire.decode_body(MessageType.WRITE, 1, body + b"!")

    def test_stream_parser_speaks_binary(self, registry):
        wire = make_wire_codec("binary", registry)
        parser = StreamParser(wire)
        frame = encode_message(
            Message(MessageType.WRITE, 3, {"lease": 5}, Part("sn-2")), wire
        )
        (message,) = parser.feed(frame)
        assert message.item == Part("sn-2")
        assert message.param_float("lease") == 5.0


class TestNegotiation:
    def test_server_prefers_binary(self):
        assert negotiate_codec("binary,xml") == "binary"
        assert negotiate_codec("xml, binary") == "binary"

    def test_xml_only_offer(self):
        assert negotiate_codec("xml") == "xml"

    def test_no_overlap(self):
        assert negotiate_codec("msgpack") is None
        assert negotiate_codec("") is None

    def test_make_wire_codec_unknown_name(self):
        with pytest.raises(ProtocolError, match="unknown wire codec"):
            make_wire_codec("msgpack", XmlCodec())

    def test_sync_client_negotiates_binary_over_tcp(self, registry):
        """Full-stack negotiation: threaded TCP server + sync client."""
        space = TupleSpace()
        with make_threaded_server(space, registry) as server:
            connection = open_socket_connection(server.address)
            try:
                client = SpaceClient(connection, registry, request_timeout=2.0)
                assert client.hello("binary,xml") == "binary"
                assert client.wire_codec == "binary"
                client.write(Part("sn-1", "drill", 2.5), lease=60)
                got = client.take_if_exists(Part(serial="sn-1"))
                assert got == Part("sn-1", "drill", 2.5)
                assert client.ping()
            finally:
                connection.close()
