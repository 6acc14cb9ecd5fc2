"""What the serving workloads send: entries, op mixes and expected replies.

Keys are partitioned between connections and every op only touches keys
of its own connection.  A connection's requests are handled in the order
sent, so each op's reply is known when the op is generated, and every
reply can be checked exactly after its window.
"""

from __future__ import annotations

import random

from repro.core import Entry, Message, MessageType, XmlCodec
from repro.cosim import MachineParameters
from repro.cosim.scenarios import default_entry


class Part(Entry):
    """A small entry: the read-mostly workload's population."""

    def __init__(self, key=None, station=None, weight=None):
        self.key = key
        self.station = station
        self.weight = weight


def part(key: int, seed: int) -> Part:
    return Part(key, f"st{(key * 7 + seed) % 61:02d}", ((key * 31 + seed) % 997) / 8.0)


def machine(key: int, seed: int) -> MachineParameters:
    """The Table 4 entry, one per rotating key."""
    entry = default_entry()
    entry.machine_id = f"cell-{key:04d}/axis-drive-3"
    entry.checksum = (key * 131 + seed) & 0xFFFF
    return entry


def machine_template(entry: MachineParameters) -> MachineParameters:
    """The case study's take template: the block's identifying fields."""
    return MachineParameters(
        machine_id=entry.machine_id, recipe=entry.recipe,
        firmware=entry.firmware, tool_slot=entry.tool_slot,
    )


def registry() -> XmlCodec:
    codec = XmlCodec()
    codec.register(Part)
    codec.register(MachineParameters)
    return codec


#: Entries preloaded into the space before a run, per workload.
PRELOAD = {"serve_read_binary": 10_000, "serve_churn_xml": 0}

#: Body codec each workload negotiates (``xml``: no HELLO is sent).
CODEC = {"serve_read_binary": "binary", "serve_churn_xml": "xml"}

#: Requests per second of the reference windows: about a quarter of the
#: server's capacity on the reference box, so requests rarely queue.
REFERENCE_RATE = {"serve_read_binary": 8000.0, "serve_churn_xml": 2000.0}

#: Lease of the churn workload's writes, as in Table 4.
CHURN_LEASE = 160.0
CHURN_KEYS = 1024


def preload(space, workload: str, seed: int) -> None:
    for key in range(PRELOAD[workload]):
        space.write(part(key, seed))


class ReadMostly:
    """90 % reads of a random live key, 5 % writes of a new key, 5 % takes
    of a key this connection wrote earlier."""

    def __init__(self, conn: int, conns: int, seed: int, preloaded: int):
        self.seed = seed
        self.entries: dict[int, Part] = {}
        self.templates: dict[int, Part] = {}
        self.live = [key for key in range(preloaded) if key % conns == conn]
        self.slot = {key: i for i, key in enumerate(self.live)}
        self.written: list[int] = []
        self.fresh = (conn + 1) * 1_000_000_000

    def _entry(self, key: int) -> Part:
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = part(key, self.seed)
        return entry

    def _template(self, key: int) -> Part:
        template = self.templates.get(key)
        if template is None:
            template = self.templates[key] = Part(key=key)
        return template

    def _drop(self, key: int) -> None:
        i = self.slot.pop(key)
        last = self.live.pop()
        if last != key:
            self.live[i] = last
            self.slot[last] = i

    def next(self, rng: random.Random) -> tuple:
        """``(msg_type, params, item, body_key, expected_type, expected_item)``.

        Ops with equal ``body_key`` encode to the same body bytes (reads
        and takes share a template), so bodies are encoded once per key.
        """
        draw = rng.random()
        if draw < 0.90:
            key = self.live[rng.randrange(len(self.live))]
            return (MessageType.READ_IF_EXISTS, {}, self._template(key), ("t", key),
                    MessageType.RESULT_ENTRY, self._entry(key))
        if draw < 0.95 or not self.written:
            key = self.fresh
            self.fresh += 1
            self.slot[key] = len(self.live)
            self.live.append(key)
            self.written.append(key)
            return (MessageType.WRITE, {}, self._entry(key), None,
                    MessageType.WRITE_ACK, None)
        i = rng.randrange(len(self.written))
        key = self.written[i]
        self.written[i] = self.written[-1]
        self.written.pop()
        self._drop(key)
        return (MessageType.TAKE_IF_EXISTS, {}, self._template(key), ("t", key),
                MessageType.RESULT_ENTRY, self.entries.pop(key))


class Churn:
    """Table 4's op pair on rotating keys: write an entry, then take it."""

    def __init__(self, conn: int, conns: int, seed: int, preloaded: int):
        self.seed = seed
        self.keys = [key for key in range(CHURN_KEYS) if key % conns == conn]
        self.turn = 0
        self.pending = None

    def next(self, rng: random.Random) -> tuple:
        if self.pending is None:
            key = self.keys[self.turn % len(self.keys)]
            self.turn += 1
            self.pending = key
            return (MessageType.WRITE, {"lease": CHURN_LEASE}, machine(key, self.seed),
                    ("w", key), MessageType.WRITE_ACK, None)
        key, self.pending = self.pending, None
        entry = machine(key, self.seed)
        return (MessageType.TAKE_IF_EXISTS, {}, machine_template(entry), ("t", key),
                MessageType.RESULT_ENTRY, entry)


MODELS = {"serve_read_binary": ReadMostly, "serve_churn_xml": Churn}


def check_reply(reply: Message, expected_type, expected_item) -> bool:
    """Whether one decoded reply is exactly what its op should get."""
    if reply.msg_type is not expected_type:
        return False
    if expected_type is MessageType.WRITE_ACK:
        return reply.param_int("lease_id") is not None
    return reply.item == expected_item
