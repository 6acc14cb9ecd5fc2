"""Traffic generators."""

import pytest

from repro.des import Simulator
from repro.net import CBRSource, LoopbackAgent, PoissonSource


@pytest.fixture
def sim():
    return Simulator(seed=3)


@pytest.fixture
def agent(sim):
    return LoopbackAgent(sim)


class TestCBR:
    def test_rate_is_respected(self, sim, agent):
        cbr = CBRSource(sim, agent, rate_bytes_per_s=10.0, packet_size=1)
        cbr.start()
        sim.run(until=10.0)
        # One byte every 0.1s starting at t=0: 101 packets in [0, 10].
        assert cbr.generated_packets == 101
        assert cbr.generated_bytes == 101

    def test_packet_size_scales_interval(self, sim, agent):
        cbr = CBRSource(sim, agent, rate_bytes_per_s=10.0, packet_size=5)
        cbr.start()
        sim.run(until=1.0)
        assert cbr.interval == pytest.approx(0.5)
        assert cbr.generated_packets == 3  # t = 0, 0.5, 1.0

    def test_zero_rate_never_emits(self, sim, agent):
        cbr = CBRSource(sim, agent, rate_bytes_per_s=0.0)
        cbr.start()
        sim.run(until=100.0)
        assert cbr.generated_packets == 0
        assert not cbr.running

    def test_stop_halts_generation(self, sim, agent):
        cbr = CBRSource(sim, agent, rate_bytes_per_s=1.0)
        cbr.start()
        sim.after(4.5, cbr.stop)
        sim.run(until=100.0)
        assert cbr.generated_packets == 5  # t = 0..4

    def test_delayed_start(self, sim, agent):
        cbr = CBRSource(sim, agent, rate_bytes_per_s=1.0)
        cbr.start(at=10.0)
        sim.run(until=12.0)
        assert cbr.generated_packets == 3

    def test_double_start_is_noop(self, sim, agent):
        cbr = CBRSource(sim, agent, rate_bytes_per_s=1.0)
        cbr.start()
        cbr.start()
        sim.run(until=2.0)
        assert cbr.generated_packets == 3

    def test_validation(self, sim, agent):
        with pytest.raises(ValueError):
            CBRSource(sim, agent, rate_bytes_per_s=-1.0)
        with pytest.raises(ValueError):
            CBRSource(sim, agent, rate_bytes_per_s=1.0, packet_size=0)

    def test_packets_reach_agent(self, sim, agent):
        cbr = CBRSource(sim, agent, rate_bytes_per_s=2.0)
        cbr.start()
        sim.run(until=5.0)
        assert len(agent.received) == cbr.generated_packets


class TestPoisson:
    def test_mean_rate_approximates_target(self, sim, agent):
        source = PoissonSource(sim, agent, rate_packets_per_s=50.0)
        source.start()
        sim.run(until=100.0)
        rate = source.generated_packets / 100.0
        assert rate == pytest.approx(50.0, rel=0.15)

    def test_deterministic_given_seed(self, agent):
        counts = []
        for _ in range(2):
            sim = Simulator(seed=11)
            source = PoissonSource(sim, LoopbackAgent(sim), rate_packets_per_s=10.0)
            source.start()
            sim.run(until=50.0)
            counts.append(source.generated_packets)
        assert counts[0] == counts[1]

