"""Tracing a simulated network: the ``net`` category of the obs tracer.

Links and nodes record the NS-2 trace events (enqueue, dequeue, drop,
receive) into the :class:`~repro.obs.Observability` their simulator
carries, stamped with simulation time.
"""

import json

from repro.des import Simulator
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet
from repro.obs import Observability


def _send(obs, sizes, queue_limit=None):
    """Send one packet per size from ``n0`` to ``n1`` at t=1 and run."""
    sim = Simulator(obs=obs)
    src, dst = Node(sim, "n0"), Node(sim, "n1")
    link = Link(sim, src, dst, bandwidth_bps=8e3, delay=0.5,
                queue_limit=queue_limit)
    sim.at(1.0, lambda: [link.send(Packet("cbr", size)) for size in sizes])
    sim.run(until=10.0)
    return obs


class TestRecording:
    def test_records_are_kept(self):
        obs = _send(Observability(), [100])
        events = obs.tracer.of_category("net")
        assert [e.name for e in events] == ["enqueue", "dequeue", "receive"]
        # 100 B at 8 kbit/s is 0.1 s on the wire, then 0.5 s of delay.
        assert [e.time for e in events] == [1.0, 1.0, 1.6]

    def test_disabled_recorder_drops(self):
        obs = _send(Observability(trace_categories=()), [100])
        assert len(obs.tracer) == 0

    def test_filter_applies(self):
        obs = Observability(trace_categories={"net"})
        obs.tracer.event("tpwire", "tx")
        _send(obs, [100])
        assert {e.cat for e in obs.tracer.events} == {"net"}
        assert len(obs.tracer) == 3

    def test_sink_receives_formatted_lines(self):
        obs = Observability()
        lines = []
        obs.tracer.sink = lines.append
        obs.tracer.keep = False
        _send(obs, [210])
        assert len(obs.tracer) == 0
        assert len(lines) == 3
        assert all(line.endswith("\n") for line in lines)
        assert json.loads(lines[0])["name"] == "enqueue"

    def test_queries(self):
        obs = _send(Observability(), [100, 100, 100], queue_limit=1)
        tracer = obs.tracer
        assert len(tracer.named("net", "enqueue")) == 2
        assert len(tracer.named("net", "drop")) == 1
        assert len(tracer.named("net", "receive")) == 2
        assert len(tracer.of_category("net")) == 7

    def test_clear(self):
        obs = _send(Observability(), [100])
        obs.tracer.clear()
        assert len(obs.tracer) == 0


class TestFormat:
    def test_ns2_like_line(self):
        obs = _send(Observability(), [210])
        receive = obs.tracer.named("net", "receive")[0]
        record = json.loads(receive.to_json())
        assert record["t"] == 1.0 + 210 * 8 / 8e3 + 0.5
        assert record["cat"] == "net"
        fields = record["fields"]
        assert (fields["dst"], fields["kind"], fields["size"]) == (
            "n1", "cbr", 210,
        )
        assert set(fields) == {"src", "dst", "kind", "size", "uid"}

    def test_info_fields_sorted(self):
        obs = _send(Observability(), [100])
        line = obs.tracer.events[0].to_json()
        fields = json.loads(line)["fields"]
        assert list(fields) == sorted(fields)
        assert line.index('"dst"') < line.index('"uid"')
