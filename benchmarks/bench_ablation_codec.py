"""Ablation — XML entry encoding (Sec. 4.2 design choice).

The paper represents entries as XML over the socket link.  On a bus where
every byte costs ~25 frame exchanges, encoding overhead directly buys
seconds of Table 4 time.  This bench quantifies the choice: XML-Tuples
size and speed against a compact JSON strawman and against the binary
body codec a connection negotiates with HELLO (docs/wire.md), and what
the inflation costs end-to-end on the bus.
"""

import json

import pytest

from repro.analysis import Table
from repro.core import XmlCodec
from repro.core.bincodec import BinaryCodec
from repro.cosim.scenarios import default_entry, make_case_study_codec


def json_size(entry) -> int:
    """A compact non-XML strawman encoding of the same entry."""
    fields = {name: getattr(entry, name) for name in type(entry)._fields}
    payload = {"class": type(entry).__name__, "fields": fields}
    return len(json.dumps(payload, separators=(",", ":")).encode())


@pytest.fixture(scope="module")
def codec():
    return make_case_study_codec()


def test_xml_encode_throughput(benchmark, codec):
    entry = default_entry()
    wire = benchmark(codec.encode, entry)
    assert wire.startswith(b"<entry")


def test_xml_decode_throughput(benchmark, codec):
    wire = codec.encode(default_entry())
    decoded = benchmark(codec.decode, wire)
    assert decoded == default_entry()


def test_xml_size_overhead(benchmark, codec, report, bench_json):
    entry = default_entry()
    xml_bytes = len(codec.encode(entry))
    json_bytes = json_size(entry)
    binary_bytes = len(BinaryCodec(codec).encode(entry))
    inflation = xml_bytes / json_bytes
    binary_inflation = xml_bytes / binary_bytes
    benchmark.pedantic(lambda: codec.encode(entry), rounds=5, iterations=10)

    # What the XML choice costs on the bus: each app byte costs roughly
    # exchange_duration * exchanges-per-byte at 2100 bit/s.
    from repro.tpwire import BusTiming
    timing = BusTiming(bit_rate=2100)
    seconds_per_byte = 2.6 * timing.exchange_duration(2)
    extra_seconds = (xml_bytes - json_bytes) * seconds_per_byte * 2  # both ways

    table = Table(
        ["encoding", "entry bytes", "est. bus seconds (write+take)"],
        title="Ablation (Sec 4.2): XML-Tuples vs compact binary encoding",
    )
    table.add_row("XML-Tuples", xml_bytes, xml_bytes * seconds_per_byte * 2)
    table.add_row("compact JSON", json_bytes, json_bytes * seconds_per_byte * 2)
    table.add_row("binary codec", binary_bytes, binary_bytes * seconds_per_byte * 2)
    report(
        "ablation_codec",
        table.render() + f"\ninflation {inflation:.2f}x -> "
        f"~{extra_seconds:.0f} s of extra Table-4 time per operation"
        f"\nXML over the negotiated binary codec: {binary_inflation:.2f}x",
    )
    bench_json(
        "ablation_codec",
        rows=table.to_records(),
        derived={
            "inflation": inflation,
            "extra_bus_seconds_per_operation": extra_seconds,
            "xml_over_binary_inflation": binary_inflation,
        },
    )

    assert 1.2 <= inflation <= 4.0
    assert extra_seconds > 5.0
    assert 1.2 <= binary_inflation <= 4.0
