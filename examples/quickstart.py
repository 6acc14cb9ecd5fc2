"""Quickstart: the tuplespace middleware in five minutes.

Covers the Linda/JavaSpaces primitives of Section 2 — write / read / take,
associative matching, leases, subscribe/notify — first on a local space,
then through the wire protocol exactly as a remote (non-Java) client
would use it.

Run:  python examples/quickstart.py
"""

import io

from repro.core import (
    ANY,
    Entry,
    LindaTuple,
    ManualClock,
    SpaceClient,
    SpaceJournal,
    SpaceServer,
    TupleSpace,
    TupleTemplate,
    XmlCodec,
    recover_space,
)
from repro.core.transports import LocalConnection


class SensorReading(Entry):
    """A typed entry: plain class, keyword fields, None = wildcard."""

    def __init__(self, sensor=None, value=None, tick=None):
        self.sensor = sensor
        self.value = value
        self.tick = tick


def local_space_basics():
    print("== local space: Linda tuples ==")
    clock = ManualClock()
    space = TupleSpace(clock=clock, name="demo")

    # Tuples are associatively addressed: match by value, by type, or ANY.
    space.write(LindaTuple("temperature", "cell-1", 21.5))
    space.write(LindaTuple("temperature", "cell-2", 23.0))
    space.write(LindaTuple("pressure", "cell-1", 3.2))

    reading = space.read_if_exists(TupleTemplate("temperature", ANY, float))
    print("read (non-destructive):", reading)

    taken = space.take_if_exists(TupleTemplate("temperature", "cell-2", ANY))
    print("take (destructive):   ", taken)
    print("items left:", len(space))

    print("\n== leases ==")
    space.write(LindaTuple("alarm", "overheat"), lease=30.0)
    clock.advance(31.0)
    expired = space.read_if_exists(TupleTemplate("alarm", ANY))
    print("after 31 s, a 30 s-leased tuple is", expired)

    print("\n== notify ==")
    events = []
    space.notify(TupleTemplate("alarm", ANY), events.append)
    space.write(LindaTuple("alarm", "pressure-spike"))
    print("notification:", events[0].item, "(seq", events[0].sequence, ")")


def remote_client_over_wire_protocol():
    print("\n== remote client: XML wire protocol (Sec. 4.2) ==")
    codec = XmlCodec()
    codec.register(SensorReading)
    space = TupleSpace(clock=ManualClock(), name="server-space")
    server = SpaceServer(space, codec)
    client = SpaceClient(LocalConnection(server), codec)

    ack = client.write(SensorReading("t7", 19.5, 1), lease=120.0)
    print("WRITE acknowledged, lease id", ack["lease_id"],
          "granted", ack["granted"], "s")

    # Templates are entries with None wildcards (JavaSpaces matching).
    got = client.take_if_exists(SensorReading(sensor="t7"))
    print("TAKE over the wire:", got)
    print("server handled", server.requests_handled, "requests")


def persistent_message_store():
    print("\n== persistence: the 'persistent message store' of Sec. 2 ==")
    clock = ManualClock()
    codec = XmlCodec()
    space = TupleSpace(clock=clock)
    journal_file = io.StringIO()           # a real file in deployments
    SpaceJournal(space, journal_file, codec)

    space.write(LindaTuple("recipe", "anodize", 3), lease=300.0)
    space.write(LindaTuple("recipe", "polish", 1))
    space.take_if_exists(TupleTemplate("recipe", "polish", ANY))
    clock.advance(60.0)

    # ... crash ... recover into a fresh space from the journal:
    restored = TupleSpace(clock=clock)
    count = recover_space(
        restored, io.StringIO(journal_file.getvalue()), codec
    )
    survivor = restored.read_if_exists(TupleTemplate("recipe", ANY, ANY))
    print(f"recovered {count} entry with its remaining lease: {survivor}")


if __name__ == "__main__":
    local_space_basics()
    remote_client_over_wire_protocol()
    persistent_message_store()
    print("\nquickstart done.")
