"""XML encoding of entries and tuples (XML-Tuples, ref. [8] of the paper).

Sec. 4.2: "Using sockets, communication between the client and the
SpaceServer relies on TCP-IP for information exchange and in particular,
XML is used to represent data entries."

The encoded size matters: it is the number of bytes that crosses the
TpWIRE bus per operation, which is what Table 4 measures.  The codec is
therefore a real, reversible XML serialisation, not a stub.  Encoding
writes the text directly, byte for byte what ElementTree's ``tostring``
writes for the same elements (``docs/protocol.md`` §6 lists the rules
and the one deliberate difference).  Decoding reads a request in the
writer's own layout by its entry class's decode plan, slicing the text
without building an element tree, and parses every other body with
ElementTree, the one general reader.

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
from typing import Any, Iterable, Optional

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


# Exact types only: bool, IntEnum and str subclasses take the
# isinstance chain of ``XmlCodec._write_field``, in its order.


def _write_none(value: None, name: str) -> str:
    return f'<field{name} type="none" />'


def _write_bool(value: bool, name: str) -> str:
    return f'<field{name} type="bool">{"true" if value else "false"}</field>'


def _write_int(value: int, name: str) -> str:
    return f'<field{name} type="int">{str(value)}</field>'


def _write_float(value: float, name: str) -> str:
    return f'<field{name} type="float">{repr(value)}</field>'


def _write_str(value: str, name: str) -> str:
    if value:
        return f'<field{name} type="str">{escape_text(value)}</field>'
    return f'<field{name} type="str" />'


def _write_bytes(value: bytes, name: str) -> str:
    if value:
        return f'<field{name} type="bytes">{value.hex()}</field>'
    return f'<field{name} type="bytes" />'


#: ``{exact type: the element of one value of it}``.
_SCALAR_WRITERS = {
    type(None): _write_none,
    bool: _write_bool,
    int: _write_int,
    float: _write_float,
    str: _write_str,
    bytes: _write_bytes,
}


# -- the general reader -------------------------------------------------------

#: XML's whitespace: the only text read where the writer writes none.
_XML_SPACE = " \t\n\r"

#: Field types whose element holds a literal (or nothing), never an element.
_SCALAR_KINDS = frozenset(("none", "bool", "int", "float", "bytes", "str"))


def _build(item_class: type, members: list) -> Any:
    """A tuple or template of ``members``; one of none is refused."""
    try:
        return item_class(*members)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _refuse_children(element: ET.Element, kind: str) -> None:
    if len(element):
        raise ProtocolError(f"{kind} <field> holds an element <{element[0].tag}>")


# -- decode plans -------------------------------------------------------------
#
# A request body in the writer's own layout is read without building an
# element tree: one match of the ``<request>`` parameters, one match of
# an entry's fields by its class's plan, whose pattern is the writer's
# ready ``<field name="…" type="`` prefixes in class order, and the
# functions ``_read_value`` uses on each literal.  Any other body is
# declined, and ElementTree, the one general reader, gives the result or
# the error for it: every escape, a raw ``>``, a CR or a character XML
# excludes, whitespace between elements, another attribute order, an
# unknown class, a tuple, a template, a dict, a nested list or entry.

#: ``<request``, its parameters as the writer writes them (one space
#: before each ``name="value"``, nothing in a value that a parser would
#: unescape or normalise, no control character, no namespace
#: declaration), then the end of the start tag.
_ENVELOPE = re.compile(
    r'<request((?: (?!xml)[A-Za-z_][A-Za-z0-9_.-]*="[^"&<>\x00-\x1f]*")*)'
    r"( />|>)"
)
_PARAM = re.compile(r' ([^=]+)="([^"]*)"')

#: A literal as a parser reads it back unchanged: no markup, escape, CR
#: or control character XML excludes, and no '>' (the writer escapes
#: it).  The two noncharacters XML excludes are looked for once a body:
#: outside Latin-1 in a class, they make each pattern far slower to
#: compile.
_LITERAL = "[^<>&\r\x00-\x08\x0b\x0c\x0e-\x1f]*"

#: One member of a list or Python tuple: its kind and its literal.
_MEMBERS = re.compile(f'<field type="([a-z]+)"(?: />|>({_LITERAL})</field>)')

#: What follows a field's prefix: its kind, then nothing, a literal or
#: one or more members.
_FIELD_REST = (
    f'([a-z]+)"(?: />|>(?:({_LITERAL})'
    f'|((?:<field type="[a-z]+"(?: />|>{_LITERAL}</field>))+))</field>)'
)


#: ``{entry class: (field names, pattern)}``: the pattern matches the
#: class's fields after its head, each under the writer's ready
#: ``<field name="…" type="`` prefix, then ``</entry>``, with three
#: groups a field (kind, literal, members).  Compiled on a class's first
#: planned read, not when it is registered: a pattern takes milliseconds
#: to compile, and a registry may never read the class.
_READ_PLANS: dict[type, tuple[tuple[str, ...], re.Pattern]] = {}


def _read_plan(entry_class: type) -> tuple[tuple[str, ...], re.Pattern]:
    plan = _ENTRY_PLANS.get(entry_class)
    _, fields = plan if plan is not None else _entry_plan(entry_class)
    pattern = "".join(
        re.escape(f'<field{attribute} type="') + _FIELD_REST for _, attribute in fields
    )
    plan = _READ_PLANS[entry_class] = (
        tuple(name for name, _ in fields), re.compile(pattern + "</entry>")
    )
    return plan


def _planned_scalar(kind: str, literal: str) -> Any:
    """``literal`` read as ``_read_value`` reads the text of a field of
    ``kind``; ``ValueError`` for a kind or a literal the plan does not
    take.  The literal of an empty element is ``""``, as for
    ElementTree."""
    if kind == "float":
        return float(literal)
    if kind == "str":
        return literal
    if kind == "int":
        return int(literal)
    if kind == "none" and not literal:
        return None
    if kind == "bool" and (literal == "true" or literal == "false"):
        return literal == "true"
    if kind == "bytes":
        return bytes.fromhex(literal)
    if kind == "list" and not literal:
        return []
    if kind == "pytuple" and not literal:
        return ()
    raise ValueError(kind)


class XmlCodec:
    """Encode/decode entries, tuples and templates to XML bytes.

    Decoding entries needs the entry classes; register them up front::

        codec = XmlCodec()
        codec.register(SensorReading)
    """

    def __init__(self):
        self._classes: dict[str, type] = {}
        #: The binary codec's decode plans for this registry's classes,
        #: keyed on an entry's encoded head (:mod:`repro.core.bincodec`).
        self.binary_plans: dict[bytes, tuple] = {}
        #: The classes this registry reads by XML decode plan, keyed on
        #: an entry's head ``<entry class="…">``: every registered class
        #: with fields (a plan's pattern is per class, ``_READ_PLANS``).
        self.xml_plans: dict[str, type] = {}

    def register(self, entry_class: type) -> type:
        """Register an Entry subclass for decoding (usable as decorator)."""
        if not (isinstance(entry_class, type) and issubclass(entry_class, Entry)):
            raise ProtocolError(f"{entry_class!r} is not an Entry subclass")
        known = self._classes.setdefault(entry_class.__name__, entry_class)
        if known is not entry_class:
            raise ProtocolError(f"{entry_class.__name__!r} already names {known!r}")
        plan = _ENTRY_PLANS.get(entry_class)
        head, fields = plan if plan is not None else _entry_plan(entry_class)
        if fields:
            self.xml_plans[head + ">"] = entry_class
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
        kind = type(value)
        write = _SCALAR_WRITERS.get(kind)
        if write is not None:
            out.append(write(value, name))
        elif kind is list:
            self._write_members(out, name, "list", value)
        elif isinstance(value, bool):
            out.append(_write_bool(value, name))
        elif isinstance(value, int):
            out.append(_write_int(value, name))
        elif isinstance(value, float):
            out.append(_write_float(value, name))
        elif isinstance(value, str):
            out.append(_write_str(value, name))
        elif isinstance(value, bytes):
            out.append(_write_bytes(value, name))
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

    def read_planned_request(self, body: bytes) -> Optional[tuple[dict, Any]]:
        """``(params, item)`` of a ``<request>`` body in the writer's own
        layout whose item, if any, is an entry of a planned class;
        ``None`` for every other body, which the general reader reads."""
        try:
            text = body.decode("utf-8")
        except UnicodeDecodeError:
            return None
        if not text.isascii() and ("\ufffe" in text or "\uffff" in text):
            return None
        envelope = _ENVELOPE.match(text)
        if envelope is None:
            return None
        params = {}
        if envelope[1]:
            pairs = _PARAM.findall(envelope[1])
            params = dict(pairs)
            if len(params) != len(pairs):  # an attribute given twice
                return None
        pos = envelope.end()
        if envelope[2] == " />":
            return (params, None) if pos == len(text) else None
        # A head is self-delimiting (a class name holds no '"'), so the
        # slice up to the first '"' after ``<entry class="`` equals a
        # plan's key only when the text goes on with that head.
        quote = text.find('"', pos + 14)
        entry_class = self.xml_plans.get(text[pos : quote + 2])
        if entry_class is None:
            return None
        plan = _READ_PLANS.get(entry_class)
        names, pattern = plan if plan is not None else _read_plan(entry_class)
        fields = pattern.match(text, quote + 2)
        if fields is None or not text.startswith("</request>", fields.end()):
            return None
        if fields.end() + 10 != len(text):  # anything after </request>
            return None
        values = {}
        groups = iter(fields.groups())
        try:
            for name, kind, literal, members in zip(names, groups, groups, groups):
                if members is None:
                    values[name] = _planned_scalar(kind, literal or "")
                elif kind == "list" or kind == "pytuple":
                    read = [_planned_scalar(*member) for member in _MEMBERS.findall(members)]
                    values[name] = read if kind == "list" else tuple(read)
                else:
                    return None
        except ValueError:
            return None
        try:
            return params, entry_class(**values)
        except TypeError:
            # The general reader builds it again and reports the failure.
            return None

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
            return self.build_entry(class_name, self._read_named(element, "<entry>"))
        if element.tag == "tuple":
            return _build(LindaTuple, [
                self._read_value(child)
                for child in self.child_elements(element, "<tuple>")
            ])
        if element.tag == "template":
            return _build(TupleTemplate, [
                self._read_pattern(child)
                for child in self.child_elements(element, "<template>")
            ])
        raise ProtocolError(f"unknown XML element <{element.tag}>")

    def child_elements(self, element: ET.Element, where: str) -> list[ET.Element]:
        """The children of an element the writer writes no text in:
        text or a tail that is not XML whitespace is refused, not
        dropped."""
        text = element.text
        if text and text.strip(_XML_SPACE):
            raise ProtocolError(f"stray text {text[:32]!r} in {where}")
        children = list(element)
        for child in children:
            tail = child.tail
            if tail and tail.strip(_XML_SPACE):
                raise ProtocolError(f"stray text {tail[:32]!r} in {where}")
        return children

    def _read_named(self, element: ET.Element, where: str):
        """``(name, value)`` of each child of an entry or dict field."""
        for child in self.child_elements(element, where):
            name = child.get("name")
            if name is None:
                # The encoder names every entry field and (string) dict
                # key; a nameless one would fabricate a ``None`` name.
                kind = element.get("type", element.tag)
                raise ProtocolError(f"{kind} <field> without a name")
            yield name, self._read_value(child)

    #: Scalar field types read by one call on the element text.
    _LITERALS = {"int": int, "float": float, "bytes": bytes.fromhex}

    def _read_value(self, element: ET.Element) -> Any:
        kind = element.get("type")
        if kind in _SCALAR_KINDS:
            _refuse_children(element, kind)
        text = element.text or ""
        if kind == "none":
            if text.strip(_XML_SPACE):
                raise ProtocolError(f"stray text {text[:32]!r} in none <field>")
            return None
        if kind == "bool":
            if text not in ("true", "false"):
                raise ProtocolError(f"bad bool literal {text!r}")
            return text == "true"
        parse = self._LITERALS.get(kind)
        if parse is not None:
            try:
                return parse(text)
            except ValueError:
                # Includes an int past the interpreter's digit limit.
                raise ProtocolError(
                    f"bad {kind} literal {text[:32]!r}"
                ) from None
        if kind == "str":
            return text
        if kind == "list":
            return [self._read_value(child)
                    for child in self.child_elements(element, "list <field>")]
        if kind == "pytuple":
            return tuple([self._read_value(child)
                          for child in self.child_elements(element, "pytuple <field>")])
        if kind == "dict":
            return dict(self._read_named(element, "dict <field>"))
        if kind == "tuple":
            return _build(LindaTuple, [
                self._read_value(child)
                for child in self.child_elements(element, "tuple <field>")
            ])
        if kind == "entry":
            children = self.child_elements(element, "entry <field>")
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
            _refuse_children(element, kind)
            if element.text and element.text.strip(_XML_SPACE):
                raise ProtocolError(f"stray text {element.text[:32]!r} in any <field>")
            return ANY
        if kind == "formal":
            _refuse_children(element, kind)
            name = element.text or ""
            formal = self._FORMAL_TYPES.get(name)
            if formal is None:
                raise ProtocolError(f"unknown formal type {name!r}")
            return formal
        return self._read_value(element)
