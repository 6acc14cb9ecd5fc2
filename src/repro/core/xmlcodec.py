"""XML encoding of entries and tuples (XML-Tuples, ref. [8] of the paper).

Sec. 4.2: "Using sockets, communication between the client and the
SpaceServer relies on TCP-IP for information exchange and in particular,
XML is used to represent data entries."

The encoded size matters: it is the number of bytes that crosses the
TpWIRE bus per operation, which is what Table 4 measures.  The codec is
therefore a real, reversible XML serialisation, not a stub.  Encoding
writes the text directly, byte for byte what ElementTree's ``tostring``
writes for the same elements (``docs/protocol.md`` §6 lists the rules
and the one deliberate difference); decoding parses with ElementTree.

Format::

    <entry class="SensorReading">
      <field name="sensor_id" type="str">t1</field>
      <field name="value" type="float">20.5</field>
      <field name="tick" type="none"/>
    </entry>

    <tuple>
      <field type="str">fft-request</field>
      <field type="list">...</field>
    </tuple>
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from typing import Any, Iterable

from repro.core.entry import Entry
from repro.core.errors import ProtocolError
from repro.core.tuples import ANY, LindaTuple, TupleTemplate

#: The characters outside XML 1.0's ``Char`` production
#: (``#x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
#: [#x10000-#x10FFFF]``).  No parser accepts one, raw or as a character
#: reference, so the writer refuses it.  Left to ``re``'s cache, which
#: compiles it when the first non-printable string is written.
_NOT_XML_CHAR = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _check_chars(text: str) -> None:
    bad = re.search(_NOT_XML_CHAR, text)
    if bad is not None:
        raise ProtocolError(
            f"character {bad.group()!r} at index {bad.start()} "
            "cannot be carried by XML 1.0"
        )


# The two escapes are ElementTree's ``_escape_cdata`` and
# ``_escape_attrib``, with one addition: a CR in text becomes ``&#13;``
# (ElementTree does that in attributes only), since a parser reads a raw
# CR (or CR LF) back as LF.  Every character XML 1.0 excludes is a
# control, a surrogate or a noncharacter, so a printable string needs no
# character check.


def escape_text(text: str) -> str:
    """Character data as ElementTree writes it, CR as ``&#13;``."""
    if not text.isprintable():
        _check_chars(text)
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    return text


def escape_attrib(text: str) -> str:
    """An attribute value as ElementTree writes it."""
    text = escape_text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


#: ``{entry class: (start tag, ((field name, name attribute), ...))}``:
#: the escaped ``<entry class="…"`` and each field's ready `` name="…"``,
#: built on a class's first encode.  A class's fields are fixed when it
#: is defined (``Entry.__init_subclass__``), so a plan never goes stale.
_ENTRY_PLANS: dict[type, tuple[str, tuple[tuple[str, str], ...]]] = {}


def _entry_plan(entry_class: type) -> tuple[str, tuple[tuple[str, str], ...]]:
    plan = _ENTRY_PLANS[entry_class] = (
        f'<entry class="{escape_attrib(entry_class.__name__)}"',
        tuple((name, f' name="{escape_attrib(name)}"') for name in entry_class._fields),
    )
    return plan


class XmlCodec:
    """Encode/decode entries, tuples and templates to XML bytes.

    Decoding entries needs the entry classes; register them up front::

        codec = XmlCodec()
        codec.register(SensorReading)
    """

    def __init__(self):
        self._classes: dict[str, type] = {}

    def register(self, entry_class: type) -> type:
        """Register an Entry subclass for decoding (usable as decorator)."""
        if not (isinstance(entry_class, type) and issubclass(entry_class, Entry)):
            raise ProtocolError(f"{entry_class!r} is not an Entry subclass")
        known = self._classes.setdefault(entry_class.__name__, entry_class)
        if known is not entry_class:
            raise ProtocolError(f"{entry_class.__name__!r} already names {known!r}")
        return entry_class

    def known_classes(self) -> list[str]:
        return sorted(self._classes)

    def build_entry(self, class_name: str, fields: Iterable[tuple[str, Any]]) -> Entry:
        """Registered class ``class_name`` built from decoded ``(name,
        value)`` pairs, refusing a name given twice (both codecs decode
        entries here; ``fields`` is consumed after the class lookup)."""
        entry_class = self._classes.get(class_name)
        if entry_class is None:
            raise ProtocolError(f"unregistered entry class {class_name!r}")
        values = {}
        for name, value in fields:
            if name in values:
                raise ProtocolError(f"{class_name} field {name!r} given twice")
            values[name] = value
        try:
            return entry_class(**values)
        except TypeError as exc:
            raise ProtocolError(
                f"cannot construct {class_name}(**{sorted(values)}): {exc}"
            ) from exc

    # -- encoding -----------------------------------------------------------
    #
    # A direct writer: each element is appended to a list of string
    # pieces as ElementTree would serialise it (insertion-ordered
    # attributes, " />" for an element with neither text nor children,
    # no XML declaration), and the pieces are joined once.

    def encode(self, item: Any) -> bytes:
        """Serialise an entry, tuple or template to UTF-8 XML bytes."""
        out: list[str] = []
        self.write_item(out, item)
        return "".join(out).encode("utf-8")

    def write_item(self, out: list[str], item: Any) -> None:
        """Append the element of an entry, tuple or template to ``out``."""
        if isinstance(item, Entry):
            plan = _ENTRY_PLANS.get(type(item))
            head, fields = plan if plan is not None else _entry_plan(type(item))
            if not fields:
                out.append(head + " />")
                return
            out.append(head + ">")
            for name, attribute in fields:
                self._write_field(out, getattr(item, name), attribute)
            out.append("</entry>")
        elif isinstance(item, LindaTuple):
            out.append("<tuple>")
            for value in item.fields:
                self._write_field(out, value)
            out.append("</tuple>")
        elif isinstance(item, TupleTemplate):
            out.append("<template>")
            for pattern in item.patterns:
                if pattern is ANY:
                    out.append('<field type="any" />')
                elif isinstance(pattern, type):
                    out.append(
                        f'<field type="formal">{escape_text(pattern.__name__)}</field>'
                    )
                else:
                    self._write_field(out, pattern)
            out.append("</template>")
        else:
            raise ProtocolError(f"cannot encode {type(item).__name__} as XML")

    def _write_field(self, out: list[str], value: Any, name: str = "") -> None:
        """Append one ``<field>``; ``name`` is its ready ``name`` attribute."""
        if value is None:
            out.append(f'<field{name} type="none" />')
        elif isinstance(value, bool):
            out.append(f'<field{name} type="bool">{"true" if value else "false"}</field>')
        elif isinstance(value, int):
            out.append(f'<field{name} type="int">{str(value)}</field>')
        elif isinstance(value, float):
            out.append(f'<field{name} type="float">{repr(value)}</field>')
        elif isinstance(value, str):
            if value:
                out.append(f'<field{name} type="str">{escape_text(value)}</field>')
            else:
                out.append(f'<field{name} type="str" />')
        elif isinstance(value, bytes):
            if value:
                out.append(f'<field{name} type="bytes">{value.hex()}</field>')
            else:
                out.append(f'<field{name} type="bytes" />')
        elif isinstance(value, list):
            self._write_members(out, name, "list", value)
        elif isinstance(value, tuple):
            # A distinct tag: encoding tuples as "list" made
            # ``LindaTuple("k", (1, 2))`` round-trip to a list field and
            # stop equality-matching its own template over the wire.
            self._write_members(out, name, "pytuple", value)
        elif isinstance(value, dict):
            if not value:
                out.append(f'<field{name} type="dict" />')
                return
            out.append(f'<field{name} type="dict">')
            for key in sorted(value):
                if not isinstance(key, str):
                    raise ProtocolError("dict keys must be strings for XML")
                self._write_field(out, value[key], f' name="{escape_attrib(key)}"')
            out.append("</field>")
        elif isinstance(value, LindaTuple):
            self._write_members(out, name, "tuple", value.fields)
        elif isinstance(value, Entry):
            out.append(f'<field{name} type="entry">')
            self.write_item(out, value)
            out.append("</field>")
        else:
            raise ProtocolError(
                f"unsupported field type {type(value).__name__} for XML"
            )

    def _write_members(self, out: list[str], name: str, kind: str, members) -> None:
        if not members:
            out.append(f'<field{name} type="{kind}" />')
            return
        out.append(f'<field{name} type="{kind}">')
        for member in members:
            self._write_field(out, member)
        out.append("</field>")

    # -- decoding -------------------------------------------------------------

    def decode(self, data: bytes) -> Any:
        try:
            element = ET.fromstring(data)
        except ET.ParseError as exc:
            raise ProtocolError(f"bad XML: {exc}") from exc
        return self.read_item(element)

    def read_item(self, element: ET.Element) -> Any:
        """:meth:`from_element` for a top-level item: nesting past the
        interpreter's recursion limit is refused like any malformed body."""
        try:
            return self.from_element(element)
        except RecursionError:
            raise ProtocolError("XML item nested too deeply") from None

    def from_element(self, element: ET.Element) -> Any:
        if element.tag == "entry":
            class_name = element.get("class")
            if class_name is None:
                raise ProtocolError("<entry> without a class attribute")
            return self.build_entry(class_name, self._read_named(element))
        if element.tag == "tuple":
            return LindaTuple(
                *[self._read_value(child) for child in element]
            )
        if element.tag == "template":
            return TupleTemplate(
                *[self._read_pattern(child) for child in element]
            )
        raise ProtocolError(f"unknown XML element <{element.tag}>")

    def _read_named(self, element: ET.Element):
        """``(name, value)`` of each child of an entry or dict field."""
        for child in element:
            name = child.get("name")
            if name is None:
                # The encoder names every entry field and (string) dict
                # key; a nameless one would fabricate a ``None`` name.
                kind = element.get("type", element.tag)
                raise ProtocolError(f"{kind} <field> without a name")
            yield name, self._read_value(child)

    def _read_value(self, element: ET.Element) -> Any:
        kind = element.get("type")
        text = element.text or ""
        if kind == "none":
            return None
        if kind == "bool":
            if text not in ("true", "false"):
                raise ProtocolError(f"bad bool literal {text!r}")
            return text == "true"
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "str":
            return text
        if kind == "bytes":
            return bytes.fromhex(text)
        if kind == "list":
            return [self._read_value(child) for child in element]
        if kind == "pytuple":
            return tuple(self._read_value(child) for child in element)
        if kind == "dict":
            return dict(self._read_named(element))
        if kind == "tuple":
            return LindaTuple(*[self._read_value(child) for child in element])
        if kind == "entry":
            children = list(element)
            if len(children) != 1:
                raise ProtocolError("nested entry field needs one child")
            return self.from_element(children[0])
        raise ProtocolError(f"unknown field type {kind!r}")

    _FORMAL_TYPES = {
        "int": int,
        "float": float,
        "str": str,
        "bool": bool,
        "bytes": bytes,
        "list": list,
        "tuple": tuple,
        "dict": dict,
    }

    def _read_pattern(self, element: ET.Element) -> Any:
        kind = element.get("type")
        if kind == "any":
            return ANY
        if kind == "formal":
            name = element.text or ""
            formal = self._FORMAL_TYPES.get(name)
            if formal is None:
                raise ProtocolError(f"unknown formal type {name!r}")
            return formal
        return self._read_value(element)
