"""Conformance matrix: one seeded op script, every client and front end.

The same script — writes, blocking and if-exists reads and takes, a
notify subscription, lease renewal and cancellation, ping, unknown-lease
errors (an id never granted, and the lease of a taken entry), a
blocking op that times out and a tuple of strings holding CR and CR LF
— runs over:

* ``SpaceClient`` on {``LocalConnection``, ``SocketSpaceServer``,
  ``AsyncSpaceServer`` over TCP} × {xml, binary};
* ``AsyncSpaceClient`` on TCP × {xml, binary};
* ``SimSpaceClient`` through the TpWIRE bus and ``SimServerHost`` ×
  {xml, binary}.

Each cell talks to a fresh server, so lease and registration ids line
up, and every cell must produce the identical transcript: every shell
takes the same ops and returns the same result shapes.
"""

import asyncio
import random

import pytest

from repro.core import (
    Entry,
    LindaTuple,
    ManualClock,
    SimClock,
    SimSpaceClient,
    SpaceClient,
    SpaceServer,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
)
from repro.core.aio import AsyncSpaceClient, AsyncSpaceServer
from repro.core.errors import SpaceError
from repro.core.server import SimTimers
from repro.core.transports import LocalConnection, open_socket_connection
from repro.cosim import SimServerHost, build_bus_system
from repro.des import Simulator
from repro.hw import ClientBridge, ServerBridge
from tests.core.fronts import serving

SEED = 13
STATIONS = ("drill", "lathe", "press", "mill")
#: Strings an XML parser would normalise if written raw: CR, and CR LF.
CR_TUPLE = LindaTuple("text", "a\rb", "c\r\nd")


class Part(Entry):
    def __init__(self, serial=None, station=None, weight=None):
        self.serial = serial
        self.station = station
        self.weight = weight


def make_codec():
    codec = XmlCodec()
    codec.register(Part)
    return codec


def op_script(seed):
    """Yield ``(op, args)`` steps; each step's result is sent back."""
    rng = random.Random(seed)
    serials = [f"sn-{n}" for n in rng.sample(range(1000), 3)]
    parts = [Part(s, rng.choice(STATIONS), rng.randint(1, 50)) for s in serials]
    yield "ping", ()
    registration = yield "notify", (Part(station=parts[0].station),)
    first = yield "write", (parts[0], 3600.0)
    yield "write", (parts[1], 3600.0)
    third = yield "write", (parts[2], 3600.0)
    yield "read", (Part(serial=serials[1]), 5.0)
    yield "read_if_exists", (Part(serial=serials[2]),)
    yield "take_if_exists", (Part(serial=serials[2]),)
    yield "take_if_exists", (Part(serial=serials[2]),)
    yield "renew_lease", (first["lease_id"], 120.0)
    yield "cancel_lease", (first["lease_id"],)
    yield "read_if_exists", (Part(serial=serials[0]),)
    yield "renew_lease", (999_999, 10.0)
    yield "renew_lease", (third["lease_id"], 10.0)  # taken: retired
    yield "take", (Part(serial=serials[1]), 5.0)
    yield "take", (Part(serial="never"), 0.05)
    yield "cancel_lease", (registration["lease_id"],)
    yield "write", (LindaTuple("job", rng.randint(1, 99)), None)
    yield "take", (TupleTemplate("job", int), 5.0)
    yield "write", (CR_TUPLE, None)
    yield "take", (TupleTemplate("text", str, str), 5.0)
    yield "ping", ()


class Transcript:
    """Drives :func:`op_script`: ``next_op`` hands out the steps, each
    shell runs them its own way and ``record`` takes the outcomes."""

    def __init__(self):
        self.steps = []
        self.events = []
        self._script = op_script(SEED)
        self._result = None

    def on_event(self, message):
        self.events.append((
            message.param_int("registration_id"),
            message.param_int("sequence"),
            message.item,
        ))

    def next_op(self):
        try:
            return self._script.send(self._result)
        except StopIteration:
            return None

    def record(self, op, outcome, error=None):
        if error is not None:
            self._result = None
            self.steps.append((op, ("error", str(error))))
        else:
            self._result = outcome
            self.steps.append((op, outcome))

    def result(self):
        return self.steps, self.events


def run_sync(client):
    transcript = Transcript()
    while (step := transcript.next_op()) is not None:
        op, args = step
        if op == "notify":
            args = (*args, transcript.on_event)
        try:
            transcript.record(op, getattr(client, op)(*args))
        except SpaceError as exc:
            transcript.record(op, None, exc)
    return transcript.result()


async def run_async(client):
    transcript = Transcript()
    while (step := transcript.next_op()) is not None:
        op, args = step
        if op == "notify":
            args = (*args, transcript.on_event)
        try:
            transcript.record(op, await getattr(client, op)(*args))
        except SpaceError as exc:
            transcript.record(op, None, exc)
    return transcript.result()


def run_sim(client, transcript):
    while (step := transcript.next_op()) is not None:
        op, args = step
        if op == "notify":
            args = (*args, transcript.on_event)
        try:
            transcript.record(op, (yield from getattr(client, op)(*args)))
        except SpaceError as exc:
            transcript.record(op, None, exc)


class _SimPacedClock(SimClock):
    """The loopback client's poll clock: each sleep runs the simulator
    holding the server's timeouts, so they fire on the client's thread."""

    def sleep(self, duration):
        self.sim.run(until=self.sim.now + duration)


def _manual_space():
    return TupleSpace(clock=ManualClock())


def sync_local(codecs):
    codec = make_codec()
    sim = Simulator(seed=1)
    server = SpaceServer(_manual_space(), codec, timers=SimTimers(sim))
    client = SpaceClient(
        LocalConnection(server), codec, request_timeout=5.0, clock=_SimPacedClock(sim)
    )
    if codecs:
        assert client.hello(codecs) == codecs.split(",")[0]
    return run_sync(client)


def sync_tcp(kind, codecs):
    codec = make_codec()
    with serving(kind, SpaceServer(_manual_space(), codec)) as front:
        connection = open_socket_connection(front.address)
        try:
            client = SpaceClient(connection, codec, request_timeout=5.0)
            if codecs:
                assert client.hello(codecs) == codecs.split(",")[0]
            return run_sync(client)
        finally:
            connection.close()


def async_cell(codecs):
    async def scenario():
        codec = make_codec()
        front = AsyncSpaceServer(SpaceServer(_manual_space(), codec))
        await front.start()
        try:
            client = await AsyncSpaceClient.connect(
                front.address, codec, codecs=codecs, request_timeout=5.0
            )
            assert client.wire_codec == (codecs or "xml").split(",")[0]
            try:
                return await run_async(client)
            finally:
                await client.close()
        finally:
            await front.stop()

    return asyncio.run(scenario())


def sim_cell(codecs):
    sim = Simulator(seed=1)
    system = build_bus_system(sim, [1, 3])
    codec = make_codec()
    space = TupleSpace(clock=SimClock(sim))
    server = SpaceServer(space, codec, timers=SimTimers(sim))
    SimServerHost(sim, server, ServerBridge(sim, system.endpoint(3)))
    bridge = ClientBridge(sim, system.endpoint(1), 3)
    client = SimSpaceClient(sim, bridge.to_bus, bridge.from_bus, codec)
    transcript = Transcript()

    def board():
        if codecs:
            assert (yield from client.hello(codecs)) == codecs.split(",")[0]
        assert client.wire_codec == (codecs or "xml").split(",")[0]
        yield from run_sim(client, transcript)
        system.stop()
        sim.stop()

    system.start()
    sim.spawn(board(), name="board")
    sim.run(until=3600.0)
    return transcript.result()


CELLS = {
    "sync-local-xml": lambda: sync_local(None),
    "sync-local-binary": lambda: sync_local("binary,xml"),
    "sync-socket-xml": lambda: sync_tcp("socket", None),
    "sync-socket-binary": lambda: sync_tcp("socket", "binary,xml"),
    "sync-aio-xml": lambda: sync_tcp("aio", None),
    "sync-aio-binary": lambda: sync_tcp("aio", "binary,xml"),
    "async-tcp-xml": lambda: async_cell(None),
    "async-tcp-binary": lambda: async_cell("binary,xml"),
    "sim-bus-xml": lambda: sim_cell(None),
    "sim-bus-binary": lambda: sim_cell("binary,xml"),
}


@pytest.fixture(scope="module")
def reference():
    return CELLS["sync-local-xml"]()


def test_reference_transcript_covers_the_script(reference):
    steps, events = reference
    assert len(steps) == 22
    assert steps[0] == steps[-1] == ("ping", True)
    # The script's errors: a lease id never granted, and the lease of
    # the part taken at step 7 (registration and writes share the
    # space's key counter: keys 1, 2, 3, 4).
    errors = [(op, result) for op, result in steps if isinstance(result, tuple)]
    assert errors == [
        ("renew_lease", ("error", "unknown lease id 999999")),
        ("renew_lease", ("error", "unknown lease id 4")),
    ]
    assert steps[8] == ("take_if_exists", None)  # taken a step earlier
    assert steps[9] == ("renew_lease", 120.0)
    assert steps[11] == ("read_if_exists", None)  # its lease was cancelled
    assert steps[15] == ("take", None)  # the blocking op that timed out
    assert steps[20] == ("take", CR_TUPLE)  # CR and CR LF come back as sent
    # Every part matched the subscription, before it was cancelled.
    assert [sequence for _registration, sequence, _item in events] == [1, 2, 3]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_every_cell_matches_the_reference(cell, reference):
    assert CELLS[cell]() == reference
