"""XML-Tuples codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ANY, Entry, LindaTuple, TupleTemplate, XmlCodec
from repro.core.errors import ProtocolError


class Block(Entry):
    def __init__(self, name=None, values=None, meta=None, raw=None, ok=None):
        self.name = name
        self.values = values
        self.meta = meta
        self.raw = raw
        self.ok = ok


class Nested(Entry):
    def __init__(self, inner=None, label=None):
        self.inner = inner
        self.label = label


@pytest.fixture
def codec():
    c = XmlCodec()
    c.register(Block)
    c.register(Nested)
    return c


class TestEntryRoundtrip:
    def test_full_entry(self, codec):
        entry = Block("b1", [1.5, 2.5], {"unit": "mm", "rev": 3}, b"\x00\xff", True)
        assert codec.decode(codec.encode(entry)) == entry

    def test_none_fields_preserved(self, codec):
        entry = Block(name="only-name")
        decoded = codec.decode(codec.encode(entry))
        assert decoded.values is None and decoded.name == "only-name"

    def test_nested_entry(self, codec):
        entry = Nested(inner=Block("inner"), label="outer")
        decoded = codec.decode(codec.encode(entry))
        assert decoded.inner == Block("inner")

    def test_unregistered_class_rejected_on_decode(self):
        sender = XmlCodec()
        sender.register(Block)
        wire = sender.encode(Block("x"))
        receiver = XmlCodec()
        with pytest.raises(ProtocolError, match="unregistered"):
            receiver.decode(wire)

    def test_register_rejects_non_entry(self, codec):
        with pytest.raises(ProtocolError):
            codec.register(int)

    def test_register_refuses_a_second_class_under_a_taken_name(self, codec):
        codec.register(Block)  # the same class again: a no-op

        class Block2(Entry):
            def __init__(self, other=None):
                self.other = other

        Block2.__name__ = "Block"
        with pytest.raises(ProtocolError, match="'Block' already names"):
            codec.register(Block2)
        assert codec.decode(codec.encode(Block("b1"))) == Block("b1")

    def test_register_as_decorator(self):
        codec = XmlCodec()

        @codec.register
        class Tagged(Entry):
            def __init__(self, tag=None):
                self.tag = tag

        assert "Tagged" in codec.known_classes()


class TestTupleRoundtrip:
    def test_linda_tuple(self, codec):
        t = LindaTuple("fft", 7, [1.0, -2.5], b"\x01")
        assert codec.decode(codec.encode(t)) == t

    def test_nested_tuple_field(self, codec):
        t = LindaTuple("outer", LindaTuple("inner", 1))
        assert codec.decode(codec.encode(t)) == t

    def test_template_with_formals_and_any(self, codec):
        template = TupleTemplate("job", int, ANY)
        decoded = codec.decode(codec.encode(template))
        assert decoded.patterns[1] is int
        assert decoded.patterns[2] is ANY
        assert decoded.matches(LindaTuple("job", 3, "anything"))

    def test_bool_vs_int_distinguished(self, codec):
        t = LindaTuple(True, 1)
        decoded = codec.decode(codec.encode(t))
        assert decoded[0] is True and decoded[1] == 1
        assert not isinstance(decoded[1], bool)


class TestErrors:
    def test_bad_xml(self, codec):
        with pytest.raises(ProtocolError, match="bad XML"):
            codec.decode(b"<entry")

    def test_unknown_root(self, codec):
        with pytest.raises(ProtocolError, match="unknown XML element"):
            codec.decode(b"<blob/>")

    def test_unencodable_value(self, codec):
        with pytest.raises(ProtocolError, match="unsupported field type"):
            codec.encode(LindaTuple(object()))

    def test_non_string_dict_keys_rejected(self, codec):
        with pytest.raises(ProtocolError):
            codec.encode(LindaTuple({1: "x"}))

    def test_cannot_encode_arbitrary_object(self, codec):
        with pytest.raises(ProtocolError):
            codec.encode(42)

    def test_unknown_formal_rejected(self, codec):
        with pytest.raises(ProtocolError, match="unknown formal"):
            codec.decode(b'<template><field type="formal">frob</field></template>')


class TestSizeProperties:
    def test_size_grows_with_payload(self, codec):
        small = len(codec.encode(Block("x", [1.0])))
        large = len(codec.encode(Block("x", [float(i) for i in range(100)])))
        assert large > small + 500

    def test_encoding_is_deterministic(self, codec):
        entry = Block("b", [1.0], {"k": "v"})
        assert codec.encode(entry) == codec.encode(entry)


_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**31, 2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(
        alphabet=st.characters(
            blacklist_categories=("Cs", "Cc"), max_codepoint=0x2FFF
        ),
        max_size=20,
    ),
    st.binary(max_size=20),
)


@given(st.lists(_scalar, min_size=1, max_size=8))
def test_tuple_roundtrip_property(fields):
    codec = XmlCodec()
    t = LindaTuple(*fields)
    decoded = codec.decode(codec.encode(t))
    assert decoded == t
