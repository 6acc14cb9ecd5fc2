"""Ablation — extensibility: how many boards can one 1-wire bus carry?

Sec. 1 motivates the tuplespace by extensibility ("it is commonplace to
implement new functionalities by adding new devices") — but every added
board shares the same master-relayed 1-wire line.  This bench adds client
boards one at a time, each performing the Table 4 write+take against the
shared space server, and measures how per-client completion time degrades
— the practical board budget of the deployed bus.
"""

import pytest

from repro.analysis import Table
from repro.core import (
    SimClock,
    SimSpaceClient,
    SpaceServer,
    TupleSpace,
    XmlCodec,
)
from repro.core.server import SimTimers
from repro.core.tuples import LindaTuple, TupleTemplate
from repro.cosim import SimServerHost, build_bus_system
from repro.des import Simulator
from repro.hw import ClientBridge, ServerBridge

SERVER_NODE = 50
CLIENT_COUNTS = [1, 2, 4]


def run_fleet(n_clients, bit_rate=2100.0, payload_fields=40):
    sim = Simulator(seed=6)
    client_nodes = list(range(1, n_clients + 1))
    system = build_bus_system(
        sim, client_nodes + [SERVER_NODE], bit_rate=bit_rate
    )
    codec = XmlCodec()
    space = TupleSpace(clock=SimClock(sim))
    server = SpaceServer(space, codec, timers=SimTimers(sim))
    SimServerHost(sim, server, ServerBridge(sim, system.endpoint(SERVER_NODE)))
    completion = {}

    def board_program(node_id, client):
        start = sim.now
        entry = LindaTuple("block", node_id, [float(i) for i in range(payload_fields)])
        yield from client.write(entry, lease=100000.0)
        taken = yield from client.take(
            TupleTemplate("block", node_id, list), timeout=100000.0
        )
        assert taken is not None
        completion[node_id] = sim.now - start

    for node_id in client_nodes:
        bridge = ClientBridge(sim, system.endpoint(node_id), SERVER_NODE)
        client = SimSpaceClient(
            sim, bridge.to_bus, bridge.from_bus, codec,
            name=f"board{node_id}",
        )
        sim.spawn(board_program(node_id, client))
    system.start()
    sim.run(until=20000.0)
    assert len(completion) == n_clients, "some boards did not finish"
    return completion


@pytest.fixture(scope="module")
def fleets():
    return {n: run_fleet(n) for n in CLIENT_COUNTS}


def test_multiclient_scaling(benchmark, fleets, report, bench_json):
    benchmark.pedantic(lambda: run_fleet(2), rounds=1, iterations=1)
    table = Table(
        ["client boards", "mean completion s", "worst completion s",
         "slowdown vs 1"],
        title="Ablation (Sec 1): added boards sharing the 1-wire bus",
    )
    baseline = None
    for n, completion in fleets.items():
        mean_time = sum(completion.values()) / len(completion)
        worst = max(completion.values())
        if baseline is None:
            baseline = mean_time
        table.add_row(n, mean_time, worst, mean_time / baseline)
    report("ablation_multiclient", table.render())

    means = [
        sum(c.values()) / len(c) for c in fleets.values()
    ]
    bench_json(
        "ablation_multiclient",
        rows=table.to_records(),
        derived={"slowdown_at_max_fleet": means[-1] / means[0]},
    )
    # Adding boards costs: mean completion grows with the fleet...
    assert means == sorted(means)
    # ...roughly linearly: the bus is a fair-shared serial resource.
    assert means[-1] / means[0] == pytest.approx(CLIENT_COUNTS[-1], rel=0.5)


def test_every_board_completes_and_isolation_holds(fleets, benchmark):
    """Each board takes back exactly its own entry (associative
    addressing isolates the tenants sharing the space)."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for n, completion in fleets.items():
        assert sorted(completion) == list(range(1, n + 1))
