"""Ablation — cost of model fidelity (packet-level vs bit-level).

The paper's methodology exists precisely because full-fidelity models are
too slow to explore with: the NS-2 packet model is validated once against
the timing-exact reference and then used for all exploration.  This bench
quantifies the trade: wall-clock cost per simulated second for the two
TpWIRE models running the identical workload.
"""

import time

import pytest

from repro.analysis import Table
from repro.cosim import ValidationScenario


def run_model(bit_level, n_packets=8):
    start = time.perf_counter()
    result = ValidationScenario(bit_level=bit_level, cbr_rate=8.0).run(n_packets)
    wall = time.perf_counter() - start
    return result, wall


def best_of(bit_level, passes=5):
    """The fastest of ``passes`` runs: a single run of the packet-level
    model lasts a few milliseconds, too short to time once."""
    return min(
        (run_model(bit_level) for _ in range(passes)), key=lambda run: run[1]
    )


def test_packet_level_model_speed(benchmark):
    result = benchmark.pedantic(
        lambda: run_model(bit_level=False)[0], rounds=3, iterations=1
    )
    assert result.packets_delivered == 8


def test_bit_level_model_speed(benchmark):
    result = benchmark.pedantic(
        lambda: run_model(bit_level=True)[0], rounds=3, iterations=1
    )
    assert result.packets_delivered == 8


def test_fidelity_cost_ratio(benchmark, report, bench_json):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    packet_result, packet_wall = best_of(bit_level=False)
    bit_result, bit_wall = best_of(bit_level=True)
    ratio = bit_wall / max(packet_wall, 1e-9)
    table = Table(
        ["model", "wall s", "sim s", "wall per sim-second"],
        title="Ablation: model fidelity cost (identical Fig. 6 workload)",
    )
    table.add_row("packet-level (NS-2 analog)", packet_wall,
                  packet_result.elapsed_seconds,
                  packet_wall / packet_result.elapsed_seconds)
    table.add_row("bit-level (hw reference)", bit_wall,
                  bit_result.elapsed_seconds,
                  bit_wall / bit_result.elapsed_seconds)
    report(
        "ablation_model_fidelity",
        table.render() + f"\nbit-level costs {ratio:.1f}x the wall time "
        "of the packet-level model",
    )
    bench_json(
        "ablation_model_fidelity",
        rows=table.to_records(),
        derived={"bit_level_wall_cost_ratio": ratio},
    )
    # The whole point of the methodology: the validated cheap model is
    # considerably cheaper than the reference.
    assert ratio > 3.0
