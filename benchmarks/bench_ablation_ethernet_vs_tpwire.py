"""Ablation — TpWIRE vs. the TCP/Ethernet alternative (Sec. 4.3).

The paper rejects the TCP/Ethernet connection for the boards on cost and
deployability grounds ("it would require the presence of active devices
(e.g., switches) which may not be amortized in some low-cost
applications").  This bench runs the identical Table 4 operation on both
substrates and reports the trade the authors weighed: time against
infrastructure.
"""

import pytest

from repro.analysis import Table
from repro.cosim import (
    CaseStudyConfig,
    CaseStudyScenario,
    EthernetCaseStudy,
)


@pytest.fixture(scope="module")
def both():
    ethernet = EthernetCaseStudy().run()
    tpwire = CaseStudyScenario(CaseStudyConfig()).run(max_sim_time=4000.0)
    return ethernet, tpwire


def test_substrate_comparison(benchmark, both, report, bench_json):
    benchmark.pedantic(lambda: EthernetCaseStudy().run(), rounds=3,
                       iterations=1)
    ethernet, tpwire = both
    table = Table(
        ["substrate", "write+take", "active devices", "cabling"],
        title="Ablation (Sec 4.3): identical tuplespace operation, "
              "TpWIRE vs switched Ethernet",
    )
    table.add_row(
        "TpWIRE 1-wire daisy chain",
        f"{tpwire.elapsed_seconds:.0f} s",
        0,
        "single shared line",
    )
    table.add_row(
        "10 Mbit/s switched Ethernet",
        f"{ethernet.elapsed_seconds:.1f} s",
        ethernet.active_devices,
        "home-run per board",
    )
    speedup = tpwire.elapsed_seconds / ethernet.elapsed_seconds
    report(
        "ablation_ethernet_vs_tpwire",
        table.render() + f"\nEthernet is {speedup:.0f}x faster but needs "
        "switch hardware and full cabling - the cost the paper's "
        "low-cost applications cannot amortise.",
    )
    bench_json(
        "ablation_ethernet_vs_tpwire",
        rows=table.to_records(),
        derived={"ethernet_speedup": speedup},
    )

    assert ethernet.completed and tpwire.completed
    assert speedup > 5.0
    assert ethernet.active_devices > 0


def test_ethernet_is_endpoint_bound(both, benchmark):
    """On Ethernet the middleware processing, not the wire, dominates —
    the inverse of the TpWIRE regime Table 4 studies."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    ethernet, _tpwire = both
    wire_seconds = ethernet.wire_bytes * 8 / 10_000_000.0
    assert wire_seconds < 0.01 * ethernet.elapsed_seconds
