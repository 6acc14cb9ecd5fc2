"""Analytic validation: the link queue agrees with queueing theory.

A simulator is only as trustworthy as its agreement with known results.
Poisson arrivals into a fixed-rate link form an M/D/1 queue, whose mean
waiting time is the Pollaczek-Khinchine value  W = rho * S / (2 (1-rho))
with service time S and utilisation rho.  The simulated mean sojourn
(wait + service + propagation) must match the analytic prediction.
"""

import pytest

from repro.des import Simulator
from repro.net import Node, PoissonSource, SinkAgent, NetAgent
from repro.net.link import Link


def run_md1(rho, service_time=0.01, horizon=4000.0, seed=5):
    """Simulate an M/D/1 link at utilisation ``rho``; return mean sojourn."""
    sim = Simulator(seed=seed)
    source_node, sink_node = Node(sim, "src"), Node(sim, "dst")
    packet_size = 100  # bytes
    bandwidth = packet_size * 8 / service_time
    Link(sim, source_node, sink_node, bandwidth)
    sender = NetAgent(sim, "sender")
    sink = SinkAgent(sim)
    source_node.attach(sender)
    sink_node.attach(sink)
    sender.connect(sink_node)
    arrival_rate = rho / service_time
    source = PoissonSource(
        sim, sender, rate_packets_per_s=arrival_rate,
        packet_size=packet_size,
    )
    source.start()
    sim.run(until=horizon)
    return sink.latency.mean, sink.received_packets


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
def test_md1_mean_sojourn_matches_pollaczek_khinchine(rho):
    service = 0.01
    measured, n = run_md1(rho, service_time=service)
    analytic_wait = rho * service / (2 * (1 - rho))
    analytic_sojourn = analytic_wait + service
    assert n > 5000  # enough samples for the comparison to mean much
    assert measured == pytest.approx(analytic_sojourn, rel=0.10)


def test_low_load_sojourn_is_just_service_time(rho=0.05):
    service = 0.01
    measured, _n = run_md1(rho, service_time=service)
    assert measured == pytest.approx(service, rel=0.05)


def test_sojourn_grows_steeply_near_saturation():
    service = 0.01
    light, _ = run_md1(0.3, service_time=service)
    heavy, _ = run_md1(0.9, service_time=service, horizon=8000.0)
    # P-K predicts w(0.9)/w(0.3) ~ 21x on waits; sojourns differ less but
    # the blow-up must be clearly visible.
    assert heavy > 3 * light
