"""TCP front ends for blocking-socket tests.

``serving(kind, space_server)`` yields a started server with an
``address``: ``"socket"`` is :class:`SocketSpaceServer` (the loop-thread
wrapper, dispatching through the RMI proxy), ``"aio"`` is a bare
:class:`AsyncSpaceServer` run on a background loop (dispatching straight
into ``SpaceServer.handle``).
"""

import asyncio
import contextlib
import threading

from repro.core.aio import AsyncSpaceServer
from repro.core.transports import SocketSpaceServer

KINDS = ("socket", "aio")


@contextlib.contextmanager
def serving(kind, space_server):
    if kind == "socket":
        with SocketSpaceServer(space_server) as tcp:
            yield tcp
        return
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    front = AsyncSpaceServer(space_server)
    try:
        asyncio.run_coroutine_threadsafe(front.start(), loop).result(5.0)
        yield front
    finally:
        asyncio.run_coroutine_threadsafe(front.stop(), loop).result(5.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5.0)
        loop.close()
