"""Simulated embedded client over in-memory channels."""

import pytest

from repro.core import (
    ClientTimingModel,
    LindaTuple,
    Message,
    MessageType,
    SimClock,
    SimSpaceClient,
    SpaceServer,
    StreamParser,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
    encode_message,
)
from repro.core.errors import SpaceError
from repro.core.server import SimTimers
from repro.des import Simulator
from repro.hw import SharedMemoryChannel


class DirectServerLoop:
    """Couple the client's channels straight to a SpaceServer (no bus)."""

    def __init__(self, sim, server, tx, rx, delay=0.01):
        self.sim = sim
        self.server = server
        self.tx = tx
        self.rx = rx
        self.delay = delay
        self.parser = StreamParser(server.codec)
        sim.spawn(self._pump(), name="direct-server")

    def send(self, message):
        wire = encode_message(message, self.server.codec)
        self.sim.after(self.delay, self.rx.write, wire)

    def _pump(self):
        while True:
            yield self.tx.wait_readable()
            for message in self.parser.feed(self.tx.read()):
                self.server.handle(self, message)


def build(timing=None, max_lease=None):
    sim = Simulator()
    codec = XmlCodec()
    if max_lease is None:
        space = TupleSpace(clock=SimClock(sim))
    else:
        space = TupleSpace(clock=SimClock(sim), max_lease=max_lease)
    server = SpaceServer(space, codec, timers=SimTimers(sim))
    tx = SharedMemoryChannel(sim, name="tx")
    rx = SharedMemoryChannel(sim, name="rx")
    DirectServerLoop(sim, server, tx, rx)
    client = SimSpaceClient(sim, tx, rx, codec, timing=timing)
    return sim, space, client


def t(*fields):
    return LindaTuple(*fields)


def tpl(*patterns):
    return TupleTemplate(*patterns)


class TestOperations:
    def test_write_then_take(self):
        sim, space, client = build()
        results = {}

        def program():
            ack = yield from client.op_write(t("a", 1), lease=60.0)
            results["ack"] = ack
            results["taken"] = yield from client.op_take(tpl("a", int), timeout=10.0)

        sim.spawn(program())
        sim.run()
        assert results["ack"]["granted"] == 60.0
        assert results["taken"] == t("a", 1)
        assert len(space) == 0

    def test_blocking_take_waits_for_write(self):
        sim, space, client = build()
        results = {}

        def program():
            results["taken"] = yield from client.op_take(tpl("a"), timeout=60.0)
            results["at"] = sim.now

        sim.spawn(program())
        sim.after(5.0, space.write, t("a"))
        sim.run()
        assert results["taken"] == t("a")
        assert results["at"] >= 5.0

    def test_take_timeout_returns_none(self):
        sim, _space, client = build()
        results = {}

        def program():
            results["taken"] = yield from client.op_take(tpl("a"), timeout=2.0)

        sim.spawn(program())
        sim.run()
        assert results["taken"] is None

    def test_read_if_exists_and_ping(self):
        sim, space, client = build()
        space.write(t("b", 2))
        results = {}

        def program():
            results["pong"] = yield from client.op_ping()
            results["read"] = yield from client.op_read_if_exists(tpl("b", int))

        sim.spawn(program())
        sim.run()
        assert results["pong"] is True
        assert results["read"] == t("b", 2)
        assert len(space) == 1

    def test_server_error_raises(self):
        sim, _space, client = build()
        caught = []

        def program():
            try:
                # WRITE without an entry is a protocol error server-side.
                yield from client.op_write(None)
            except SpaceError as exc:
                caught.append(str(exc))

        sim.spawn(program())
        sim.run()
        assert caught and "entry" in caught[0]


class TestLeaseOps:
    def test_renew_lease_restarts_term(self):
        sim, space, client = build()
        results = {}

        def program():
            ack = yield from client.op_write(t("a", 1), lease=30.0)
            yield sim.timeout(20.0)
            results["renewed"] = yield from client.op_renew_lease(
                ack["lease_id"], 30.0
            )
            # Past the original expiry (t=30) but inside the renewed term.
            yield sim.timeout(15.0)
            results["read"] = yield from client.op_read_if_exists(tpl("a", int))

        sim.spawn(program())
        sim.run()
        assert results["renewed"]["granted"] == 30.0
        assert results["renewed"]["remaining"] == pytest.approx(30.0, abs=1.0)
        assert results["read"] == t("a", 1)

    def test_renew_lease_reports_clamped_grant(self):
        sim, _space, client = build(max_lease=20.0)
        results = {}

        def program():
            ack = yield from client.op_write(t("a", 1), lease=10.0)
            results["renewed"] = yield from client.op_renew_lease(
                ack["lease_id"], 500.0
            )

        sim.spawn(program())
        sim.run()
        # The server clamps to max_lease and the ack says so.
        assert results["renewed"]["granted"] == 20.0
        assert results["renewed"]["remaining"] == pytest.approx(20.0, abs=1.0)

    def test_cancel_lease_drops_entry(self):
        sim, space, client = build()
        results = {}

        def program():
            ack = yield from client.op_write(t("a", 1), lease=60.0)
            results["cancelled"] = yield from client.op_cancel_lease(
                ack["lease_id"]
            )
            results["read"] = yield from client.op_read_if_exists(tpl("a", int))

        sim.spawn(program())
        sim.run()
        assert results["cancelled"]["remaining"] == 0.0
        assert results["read"] is None
        assert len(space) == 0


class TestTimingModel:
    def test_build_time_charged_before_send(self):
        timing = ClientTimingModel(
            build_seconds_per_byte=0.01, request_overhead=1.0
        )
        sim, _space, client = build(timing=timing)
        done = {}

        def program():
            yield from client.op_ping()
            done["at"] = sim.now

        sim.spawn(program())
        sim.run()
        # PING is header-only (11 bytes): >= 1.0 + 0.11 before the wire.
        assert done["at"] >= 1.11

    def test_parse_time_charged_on_receive(self):
        no_cost = build()
        slow = build(timing=ClientTimingModel(parse_seconds_per_byte=0.01))

        def run_ping(world):
            sim, _space, client = world
            done = {}

            def program():
                yield from client.op_ping()
                done["at"] = sim.now

            sim.spawn(program())
            sim.run()
            return done["at"]

        assert run_ping(slow) > run_ping(no_cost)

    def test_zero_cost_model_default(self):
        model = ClientTimingModel()
        assert model.build_time(1000) == 0.0
        assert model.parse_time(1000) == 0.0
