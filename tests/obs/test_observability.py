"""Observability facade tests: clock binding, bundled exporters."""

from __future__ import annotations

from repro.des import Simulator
from repro.obs import Observability


def test_unbound_clock_reads_zero():
    obs = Observability()
    assert not obs.clock_bound
    assert obs.now() == 0.0
    event = obs.tracer.event("setup", "configured")
    assert event.time == 0.0


def test_first_clock_binder_wins():
    obs = Observability()
    obs.bind_clock(lambda: 5.0)
    obs.bind_clock(lambda: 99.0)  # later binder is ignored
    assert obs.clock_bound
    assert obs.now() == 5.0


def test_simulator_binds_obs_clock():
    obs = Observability()
    sim = Simulator(seed=1, obs=obs)

    def process():
        yield sim.timeout(2.5)
        obs.tracer.event("proc", "woke")

    sim.spawn(process())
    sim.run(until=10.0)
    assert obs.clock_bound
    assert obs.tracer.named("proc", "woke")[0].time == 2.5
    assert obs.now() == sim.now


def test_category_filter_threads_through_facade():
    obs = Observability(trace_categories={"kept"})
    obs.tracer.event("kept", "a")
    obs.tracer.event("dropped", "b")
    assert [e.cat for e in obs.tracer.events] == ["kept"]


def test_summary_shorthand_matches_registry():
    obs = Observability()
    obs.metrics.attach("c", lambda: 1)
    assert obs.summary() == obs.metrics.summary()
    assert obs.summary()["counters"]["c"] == 1


def test_vcd_available_through_facade():
    obs = Observability()
    obs.vcd.signal("line")
    obs.vcd.change("line", 1, 2e-6)
    assert "$timescale 1 us" in obs.vcd.render()
