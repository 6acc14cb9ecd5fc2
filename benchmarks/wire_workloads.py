"""Wire-concurrency workload: many simulated clients, one event loop.

The workload drives the :class:`~repro.core.aio.AsyncSpaceServer` front
end with thousands of concurrent :class:`~repro.core.aio.AsyncSpaceClient`
sessions.  Clients connect through ``front.open_local()`` — in-loop byte
pipes with no socket and no file descriptor — which is what lets the
full bench sustain 10k+ *concurrent* connections inside one process
without touching the fd limit; every connection still runs the complete
wire path (framing, body codec, backpressure, dispatch).

Each client performs a mixed sequence per round: ``write`` an entry,
``read_if_exists`` it back, ``take_if_exists`` it, and every fourth
round a tuple write/take with nested values (lists, tuples, dicts) to
exercise the deeper codec paths.  Per-await latencies are recorded so
the bench can report p50/p99 alongside throughput.  All connections are
established (and the binary runs negotiated) before the timed window
opens, so throughput reflects steady-state wire traffic with the full
client population live, not connection setup.

:func:`wire_throughput` is what the CI gate (``wire_smoke.py``) and the
artefact's smoke rows both measure: the median of warmed repetitions,
each scaled to nominal host speed by the yardstick chunks timed next to
it (as in ``engine_workloads.py``).
"""

from __future__ import annotations

import asyncio
import time

from benchmarks.engine_workloads import throughput_stats
from repro.core import Entry, LindaTuple, TupleSpace, TupleTemplate, XmlCodec
from repro.core.aio import AsyncSpaceClient, AsyncSpaceServer
from repro.core.server import SpaceServer

#: Full-bench scale (the committed artefact) and the CI smoke scale.
FULL_CLIENTS = 10_000
FULL_OPS_PER_CLIENT = 3
SMOKE_CLIENTS = 200
SMOKE_OPS_PER_CLIENT = 3


class BenchPart(Entry):
    """The workload entry: a part travelling between stations."""

    def __init__(self, serial=None, station=None, weight=None):
        self.serial = serial
        self.station = station
        self.weight = weight


def make_registry() -> XmlCodec:
    codec = XmlCodec()
    codec.register(BenchPart)
    return codec


async def _connect(front, registry, codec_name):
    reader, writer = front.open_local()
    client = AsyncSpaceClient(reader, writer, registry, request_timeout=None)
    if codec_name != "xml":
        await client.hello(f"{codec_name},xml")
    return client


async def _client_ops(client, cid, rounds, latencies):
    for n in range(rounds):
            serial = f"c{cid}-{n}"
            part = BenchPart(serial, "drill", 2.5)
            start = time.perf_counter()
            await client.write(part)
            latencies.append(time.perf_counter() - start)
            start = time.perf_counter()
            got = await client.read_if_exists(BenchPart(serial=serial))
            latencies.append(time.perf_counter() - start)
            assert got is not None
            start = time.perf_counter()
            taken = await client.take_if_exists(BenchPart(serial=serial))
            latencies.append(time.perf_counter() - start)
            assert taken is not None
            if n % 4 == 0:
                payload = LindaTuple(serial, (1, 2), [3.5, "x"], {"k": None})
                start = time.perf_counter()
                await client.write(payload)
                latencies.append(time.perf_counter() - start)
                start = time.perf_counter()
                row = await client.take_if_exists(
                    TupleTemplate(serial, (1, 2), [3.5, "x"], {"k": None})
                )
                latencies.append(time.perf_counter() - start)
                assert row is not None


async def _run_async(codec_name, clients, rounds, batch):
    registry = make_registry()
    space = TupleSpace()
    server = SpaceServer(space, registry)
    front = AsyncSpaceServer(server, port=0)
    await front.start()
    latencies: list[float] = []
    peak_open = 0
    elapsed = 0.0
    try:
        # Batched launch: bounds simultaneous connection setup while the
        # whole batch stays concurrent on the wire.  Each batch connects
        # (and negotiates) every client *before* the timed window opens,
        # so ``elapsed`` measures operation throughput with the full
        # batch of connections live — not connection setup cost, which
        # is codec-independent and would dilute the comparison.
        for base in range(0, clients, batch):
            width = min(batch, clients - base)
            sessions = await asyncio.gather(
                *(_connect(front, registry, codec_name) for k in range(width))
            )
            peak_open = max(peak_open, width)
            started = time.perf_counter()
            await asyncio.gather(
                *(
                    _client_ops(session, base + k, rounds, latencies)
                    for k, session in enumerate(sessions)
                )
            )
            elapsed += time.perf_counter() - started
            await asyncio.gather(
                *(session.close() for session in sessions)
            )
    finally:
        await front.stop()
    latencies.sort()

    def _pct(q: float) -> float:
        if not latencies:
            return 0.0
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "codec": codec_name,
        "clients": clients,
        "concurrent_clients": peak_open,
        "ops": len(latencies),
        "elapsed_s": round(elapsed, 6),
        "ops_per_second": round(len(latencies) / elapsed) if elapsed else 0,
        "p50_ms": round(_pct(0.50) * 1e3, 3),
        "p99_ms": round(_pct(0.99) * 1e3, 3),
        "requests_dispatched": front.requests,
        "negotiated_binary": front.negotiated.get("binary", 0),
        "protocol_errors": front.protocol_errors,
        "slow_consumer_closes": front.slow_consumer_closes,
        "space_leftover": len(space),
    }


def run_wire_workload(
    codec_name: str,
    clients: int = SMOKE_CLIENTS,
    rounds: int = SMOKE_OPS_PER_CLIENT,
    batch: int = 0,
) -> dict:
    """One full run of the mixed workload on a fresh loop; returns metrics.

    ``batch`` caps how many client sessions run concurrently (0 means all
    of them at once — the 10k-concurrent configuration of the bench).
    """
    if batch <= 0:
        batch = clients
    return asyncio.run(_run_async(codec_name, clients, rounds, batch))


def wire_throughput(
    codec_name: str,
    clients: int = SMOKE_CLIENTS,
    rounds: int = SMOKE_OPS_PER_CLIENT,
    repeats: int = 5,
) -> dict:
    """Ops/second statistics at nominal host speed (see
    :func:`~benchmarks.engine_workloads.throughput_stats`); ``rows``
    holds every run's metrics, the warmup's included, for the
    correctness checks.  Five repetitions, not three: a smoke run lasts
    a fraction of a second, so one preempted run is common."""
    rows = []

    def run():
        row = run_wire_workload(codec_name, clients=clients, rounds=rounds)
        rows.append(row)
        return row["ops"], row["elapsed_s"]

    stats = throughput_stats(run, repeats)
    stats["rows"] = rows
    return stats


def wire_faults(row: dict) -> list[str]:
    """What went wrong in one run: requests that were not operations,
    protocol errors, slow-consumer closes, residue in the space, a missed
    negotiation."""
    hellos = row["clients"] if row["codec"] == "binary" else 0
    faults = [] if row["requests_dispatched"] == row["ops"] + hellos else [
        f"requests_dispatched={row['requests_dispatched']} != ops+hello={row['ops'] + hellos}"
    ]
    faults += [
        f"{key}={row[key]}"
        for key in ("protocol_errors", "slow_consumer_closes", "space_leftover")
        if row[key]
    ]
    if row["codec"] == "binary" and row["negotiated_binary"] != row["clients"]:
        faults.append(f"negotiated_binary={row['negotiated_binary']} != {row['clients']}")
    return faults


def format_rows(rows) -> str:
    lines = [
        f"{'codec':<8} {'clients':>8} {'ops':>9} {'ops/s':>9} "
        f"{'p50 ms':>9} {'p99 ms':>9} {'elapsed':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row['codec']:<8} {row['concurrent_clients']:>8} "
            f"{row['ops']:>9} {row['ops_per_second']:>9} "
            f"{row['p50_ms']:>9.2f} {row['p99_ms']:>9.2f} "
            f"{row['elapsed_s']:>7.2f}s"
        )
    return "\n".join(lines)
