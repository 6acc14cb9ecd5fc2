"""The space server process of the serving workloads.

Run as ``python -m benchmarks.e2e.server <workload> <seed> <cpu>`` with
``src`` and the repository root on ``PYTHONPATH`` (an empty ``<cpu>``
leaves the process unpinned).  It builds a ``TupleSpace``
behind ``SpaceServer`` and ``AsyncSpaceServer`` on an ephemeral
127.0.0.1 port and preloads the workload's entries, with yardstick
chunks (``speed.py``) on each side of that set-up.  It prints ``READY
<port> <chunks' seconds> <chunks>`` and then answers one JSON line per
command read from stdin:

``MARK``       process CPU time, RSS, request and byte counters, GC stats
``ARM``        start running yardstick chunks between the server's
               callbacks
``DISARM``     stop them; report the requests served and the CPU time
               spent on them since ``ARM``, and the chunks' times
``TRACE ON``   start the sampler and the spans around the layers' calls
``TRACE OFF``  stop them and report the profile and every handle span
``STOP``       (or end of input) stop the server and exit

The spans wrap public calls from here, outside the program:
``SpaceServer.handle``, the ``TupleSpace`` ops, ``StreamParser.feed``
and the front end's ``encode_message``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

from benchmarks.e2e import layers, speed, traffic
from repro.core import SpaceServer, TupleSpace
from repro.core import aio, protocol


class Tracing:
    """The spans and the sampler, installed for one traced window."""

    def __init__(self, server: SpaceServer):
        self.server = server
        self.sampler = layers.Sampler()
        self.handle = layers.HandleSpans()
        self.space = layers.SpanTotals()
        self.encode = layers.SpanTotals()
        self.feed = layers.SpanTotals()
        self.frames = 0
        self._saved = {}

    def start(self) -> None:
        server, space = self.server, self.server.space
        self._saved = {
            "handle": server.handle,
            "space": {name: getattr(space, name) for name in layers.SPACE_OPS},
            "feed": protocol.StreamParser.feed,
            "encode": aio.encode_message,
        }
        server.handle = self.handle.wrap(server.handle)
        layers.wrap_space_ops(space, self.space)
        feed = self.feed.wrap(protocol.StreamParser.feed)

        def counted_feed(parser, data):
            messages = feed(parser, data)
            self.frames += len(messages)
            return messages

        protocol.StreamParser.feed = counted_feed
        aio.encode_message = self.encode.wrap(aio.encode_message)
        self.sampler.start()

    def stop(self) -> dict:
        self.sampler.stop()
        saved = self._saved
        self.server.handle = saved["handle"]
        for name, op in saved["space"].items():
            setattr(self.server.space, name, op)
        protocol.StreamParser.feed = saved["feed"]
        aio.encode_message = saved["encode"]
        return {
            "profile": self.sampler.summary(),
            "space_calls": self.space.count,
            "space_s": self.space.seconds,
            "feed_calls": self.feed.count,
            "feed_s": self.feed.seconds,
            "frames": self.frames,
            "encode_calls": self.encode.count,
            "encode_s": self.encode.seconds,
            "handle": {
                "request_ids": self.handle.request_ids,
                "starts": self.handle.starts,
                "ends": self.handle.ends,
            },
        }


class Yardstick:
    """Yardstick chunks every :data:`PERIOD_S` of the event loop, run
    between the server's callbacks, so they meet the host in the same
    state as the requests served meanwhile."""

    PERIOD_S = 0.004

    def __init__(self, server: SpaceServer):
        self.server = server
        self.requests = server.requests_handled
        self.chunks = 0
        self.chunk_s = 0.0
        self.chunk_cpu_s = 0.0
        self.cpu_s = time.process_time()
        self.task = asyncio.get_running_loop().create_task(self._run())

    def _chunk(self) -> None:
        started = time.process_time()
        self.chunk_s += speed.chunk_s()
        self.chunk_cpu_s += time.process_time() - started
        self.chunks += 1

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self.PERIOD_S)
            self._chunk()

    async def stop(self) -> dict:
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        if not self.chunks:  # a burst shorter than one period
            self._chunk()
        return {
            "requests": self.server.requests_handled - self.requests,
            "cpu_s": time.process_time() - self.cpu_s - self.chunk_cpu_s,
            "chunks": self.chunks,
            "chunk_s": self.chunk_s,
        }


#: Yardstick chunks run on each side of the server's own set-up.
SETUP_CHUNKS = 8


async def serve(workload: str, seed: int) -> None:
    chunks = [speed.chunk_s() for _ in range(SETUP_CHUNKS)]
    space = TupleSpace()
    traffic.preload(space, workload, seed)
    server = SpaceServer(space, traffic.registry())
    front = aio.AsyncSpaceServer(server, port=0)
    await front.start()
    chunks += [speed.chunk_s() for _ in range(SETUP_CHUNKS)]
    gc_monitor = layers.GcMonitor()
    gc_monitor.start()
    tracing = yardstick = None
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    print(f"READY {front.address[1]} {sum(chunks)} {len(chunks)}", flush=True)
    try:
        while True:
            line = (await commands.readline()).decode().strip()
            if line in ("", "STOP"):
                break
            if line == "MARK":
                reply = {
                    "cpu_s": time.process_time(),
                    **layers.memory_kb(),
                    "requests": server.requests_handled,
                    "errors": server.errors_sent,
                    "bytes_in": front.bytes_in,
                    "bytes_out": front.bytes_out,
                    "gc": gc_monitor.summary(),
                }
                gc_monitor.reset()
            elif line == "ARM":
                yardstick = Yardstick(server)
                reply = {"ok": True}
            elif line == "DISARM" and yardstick is not None:
                reply = await yardstick.stop()
                yardstick = None
            elif line == "TRACE ON":
                tracing = Tracing(server)
                tracing.start()
                reply = {"ok": True}
            elif line == "TRACE OFF" and tracing is not None:
                reply = tracing.stop()
                tracing = None
            else:
                reply = {"error": f"unknown command {line!r}"}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        gc_monitor.stop()
        await front.stop()


def main(argv: list[str]) -> int:
    workload, seed, cpu = argv[0], int(argv[1]), argv[2]
    if cpu:
        os.sched_setaffinity(0, {int(cpu)})
    asyncio.run(serve(workload, seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
