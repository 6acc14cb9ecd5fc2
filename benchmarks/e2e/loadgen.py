"""Single-threaded open-loop load generator over real TCP connections.

A *window* sends a prepared list of requests at their due times,
whatever the server's state, and records when each reply arrives.  To
stay on time the loop waits in ``select`` only for gaps longer than
:data:`SPIN_BELOW` and spins below that; it packs each 11-byte frame
header at send time over a body encoded before the window, and in the
hot loop it parses only reply headers.  Replies are kept as raw bytes
and decoded after the window, outside the timing.
"""

from __future__ import annotations

import gc
import math
import random
import select
import socket
import time
from dataclasses import dataclass, field

from benchmarks.e2e.traffic import check_reply
from repro.core import Message, MessageType
from repro.core.protocol import HEADER, MAGIC, StreamParser, encode_message, make_wire_codec

#: Gaps shorter than this are spun; longer ones are slept in ``select``
#: (microsecond timeouts, unlike epoll's milliseconds) until
#: ``SPIN_MARGIN`` before the next due time.  A sleeping virtual CPU can
#: take a fraction of a millisecond to wake on a busy host.
SPIN_BELOW = 0.002
SPIN_MARGIN = 0.001

#: Each connection's request ids start here, so ids never collide.
ID_SPAN = 1 << 30


class Connection:
    """One generator-side TCP connection and the state of its op mix."""

    def __init__(self, index: int, address, registry, codec: str, model):
        self.index = index
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.wire = make_wire_codec("xml", registry)
        self.next_id = index * ID_SPAN
        self.model = model
        if codec != "xml":
            self._hello(registry, codec)
        self.sock.setblocking(False)
        self.bodies: dict = {}

    def take_id(self) -> int:
        self.next_id += 1
        return self.next_id

    def _hello(self, registry, codec: str) -> None:
        request = Message(MessageType.HELLO, self.take_id(), {"codecs": codec})
        self.sock.sendall(encode_message(request, self.wire))
        parser = StreamParser(self.wire)
        replies = []
        while not replies:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError("server closed during HELLO")
            replies = parser.feed(data)
        reply = replies[0]
        if reply.msg_type is not MessageType.HELLO_ACK or reply.params.get("codec") != codec:
            raise ConnectionError(f"HELLO for {codec} answered {reply}")
        self.wire = make_wire_codec(codec, registry)

    def body(self, msg_type, params, item, body_key) -> bytes:
        if body_key is None:
            return self.wire.encode_body(Message(msg_type, 0, params, item))
        body = self.bodies.get(body_key)
        if body is None:
            body = self.bodies[body_key] = self.wire.encode_body(
                Message(msg_type, 0, params, item)
            )
        return body

    def close(self) -> None:
        self.sock.close()


@dataclass
class Plan:
    """The requests of one window, in due order (due times from its start)."""

    due: list = field(default_factory=list)
    conn: list = field(default_factory=list)
    msg_type: list = field(default_factory=list)
    request_id: list = field(default_factory=list)
    body: list = field(default_factory=list)
    expected: list = field(default_factory=list)


def poisson(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Due times of Poisson arrivals at ``rate`` over ``seconds``."""
    dues = []
    due = rng.expovariate(rate)
    while due < seconds:
        dues.append(due)
        due += rng.expovariate(rate)
    return dues


def prepare(conns: list, rng: random.Random, dues: list[float]) -> Plan:
    """One request per due time, each on a random connection, with the op
    its connection's mix draws next."""
    plan = Plan()
    for due in dues:
        conn = conns[rng.randrange(len(conns))]
        msg_type, params, item, body_key, expect_type, expect_item = conn.model.next(rng)
        plan.due.append(due)
        plan.conn.append(conn.index)
        plan.msg_type.append(int(msg_type))
        plan.request_id.append(conn.take_id())
        plan.body.append(conn.body(msg_type, params, item, body_key))
        plan.expected.append((expect_type, expect_item))
    return plan


@dataclass
class Window:
    """What one window measured (times from ``time.perf_counter``)."""

    start: float
    plan: Plan
    sent: list
    received: list
    replies: list
    drained: bool

    def latencies_ms(self) -> list[float]:
        """Due-to-reply latency of every request in send order; a request
        never answered counts as infinitely late."""
        start = self.start
        return [
            (got - start - due) * 1e3 if got else math.inf
            for due, got in zip(self.plan.due, self.received)
        ]

    def late_ms(self) -> list[float]:
        """How late each request was handed to the kernel, in send order."""
        start = self.start
        return [(sent - start - due) * 1e3 for due, sent in zip(self.plan.due, self.sent)]


def drive(conns: list, plan: Plan, drain_s: float = 1.0, give_up_s: float = 20.0) -> Window:
    """Send ``plan`` on schedule and collect every reply.

    ``drained`` is false when some reply came later than ``drain_s``
    after the last request was due; the loop still waits up to
    ``give_up_s`` for stragglers so the next window starts clean.
    """
    count = len(plan.due)
    due, conn_of, types, ids, bodies = (
        plan.due, plan.conn, plan.msg_type, plan.request_id, plan.body,
    )
    index_of = {rid: i for i, rid in enumerate(ids)}
    sent = [0.0] * count
    received = [0.0] * count
    socks = [c.sock for c in conns]
    outs = [bytearray() for _ in conns]
    logs = [bytearray() for _ in conns]
    offsets = [0] * len(conns)
    # The generator's own collections would stall sends and show up as
    # server latency; collect now and not during the window.
    gc.collect()
    gc.disable()
    index_of_sock = {sock: c for c, sock in enumerate(socks)}
    wait = select.select
    pack = HEADER.pack
    unpack_from = HEADER.unpack_from
    header_size = HEADER.size
    clock = time.perf_counter
    start = clock() + 0.005
    last_due = start + (due[-1] if count else 0.0)
    answered = 0
    backlog = False
    i = 0
    try:
        while True:
            now = clock()
            if i < count and start + due[i] <= now:
                first = i
                while i < count and start + due[i] <= now:
                    body = bodies[i]
                    out = outs[conn_of[i]]
                    out += pack(MAGIC, types[i], ids[i], len(body))
                    out += body
                    i += 1
                backlog = _flush(socks, outs)
                handed = clock()
                for j in range(first, i):
                    sent[j] = handed
            elif backlog:
                backlog = _flush(socks, outs)
            if i < count:
                gap = start + due[i] - clock()
                timeout = gap - SPIN_MARGIN if gap > SPIN_BELOW else 0
            else:
                if answered == count:
                    break
                if clock() > last_due + give_up_s:
                    break
                timeout = 0  # spin: the last replies are timed too
            for sock in wait(socks, (), (), timeout)[0]:
                c = index_of_sock[sock]
                data = socks[c].recv(1 << 20)
                if not data:
                    raise ConnectionError("server closed the connection")
                got = clock()
                log = logs[c]
                log += data
                offset = offsets[c]
                end = len(log)
                while offset + header_size <= end:
                    _magic, _type, rid, length = unpack_from(log, offset)
                    total = header_size + length
                    if offset + total > end:
                        break
                    received[index_of[rid]] = got
                    answered += 1
                    offset += total
                offsets[c] = offset
    finally:
        gc.enable()
    deadline = last_due + drain_s
    drained = answered == count and all(got <= deadline for got in received)
    return Window(start, plan, sent, received, logs, drained)


def _flush(socks: list, outs: list) -> bool:
    """Hand queued request bytes to the kernel; true if some are left."""
    left = False
    for sock, out in zip(socks, outs):
        if out:
            try:
                del out[: sock.send(out)]
            except BlockingIOError:
                pass
            left = left or bool(out)
    return left


def verify(conns: list, window: Window) -> dict:
    """Decode every reply and check it against its op's expected outcome."""
    index_of = {rid: i for i, rid in enumerate(window.plan.request_id)}
    seen = [False] * len(index_of)
    errors = wrong = hits = 0
    for conn, log in zip(conns, window.replies):
        for reply in StreamParser(conn.wire).feed(bytes(log)):
            i = index_of.get(reply.request_id)
            if i is None or seen[i]:
                wrong += 1
                continue
            seen[i] = True
            if reply.msg_type is MessageType.ERROR:
                errors += 1
                continue
            if reply.msg_type is MessageType.RESULT_ENTRY:
                hits += 1
            expect_type, expect_item = window.plan.expected[i]
            if not check_reply(reply, expect_type, expect_item):
                wrong += 1
    return {
        "errors": errors,
        "wrong": wrong,
        "unanswered": seen.count(False),
        "hits": hits,
    }

