"""Injectors: fault windows against links, the tpwire bus, and slaves.

Also the regression home of per-link drop/corrupt accounting: it must
reach the ``repro.obs`` metric counters whenever the simulator carries
an observability context, and the plain attribute counters must agree
with the exported ones.
"""

import pytest

from repro.chaos import (
    BusNoiseInjector,
    CallbackInjector,
    FaultKind,
    InjectorError,
    LinkFaultInjector,
    SlaveCrashInjector,
    arm_plan,
    fault,
    make_injector,
    single_fault_plan,
    FaultPlan,
)
from repro.des import Simulator
from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import Packet
from repro.obs import Observability
from repro.tpwire.bus import BitErrorModel, TpwireBus
from repro.tpwire.slave import TpwireSlave
from repro.tpwire.timing import BusTiming


def _link_world(obs=None):
    sim = Simulator(seed=0, obs=obs)
    src = Node(sim, "a")
    dst = Node(sim, "b")
    link = Link(sim, src, dst, bandwidth_bps=1e6, delay=0.0)
    return sim, link


def _send_at(sim, link, times):
    for t in times:
        sim.at(t, lambda: link.send(Packet("probe", 100)))


# -- LinkFaultInjector -------------------------------------------------------


def test_partition_drops_only_inside_the_window():
    sim, link = _link_world()
    plan = single_fault_plan(FaultKind.PARTITION, at=1.0, duration=1.0,
                             scope="l", seed=0)
    LinkFaultInjector(sim, plan.faults[0], link, plan).arm()
    _send_at(sim, link, [0.5, 1.0, 1.5, 2.5])
    sim.run(until=3.0)
    assert link.fault_drops == 2          # the two in-window packets
    assert link.drops == 2
    assert link.fault is None             # hook restored after the window


def test_partition_restores_a_preexisting_hook():
    sim, link = _link_world()

    def tag_everything(lnk, packet):
        packet.headers["tagged"] = True
        return None

    link.fault = tag_everything
    plan = single_fault_plan(FaultKind.PARTITION, at=1.0, duration=1.0,
                             scope="l", seed=0)
    LinkFaultInjector(sim, plan.faults[0], link, plan).arm()
    sim.run(until=3.0)
    assert link.fault is tag_everything


def test_link_drop_and_corrupt_counters_reach_obs():
    # Satellite 1: attribute counters and repro.obs counters move in
    # lockstep for both fault-verdict drops and corruptions.
    obs = Observability()
    sim, link = _link_world(obs=obs)
    plan = FaultPlan(seed=0, faults=(
        fault(FaultKind.PARTITION, at=1.0, duration=1.0, scope="l"),
        fault(FaultKind.NOISY_BURST, at=3.0, duration=1.0, scope="l",
              corrupt_p=1.0),
    ))
    for spec in plan:
        LinkFaultInjector(sim, spec, link, plan).arm()
    _send_at(sim, link, [1.2, 1.4, 3.5])
    sim.run(until=5.0)
    assert link.drops == 2
    assert link.corrupts == 1
    counters = obs.summary()["counters"]
    assert counters[f"{link}.drops"] == link.drops
    assert counters[f"{link}.corrupts"] == link.corrupts


def test_queue_limit_drops_share_the_obs_counter():
    obs = Observability()
    sim = Simulator(seed=0, obs=obs)
    src = Node(sim, "a")
    dst = Node(sim, "b")
    # 1 kbit/s and a one-deep queue: back-to-back sends overflow.
    link = Link(sim, src, dst, bandwidth_bps=1e3, delay=0.0, queue_limit=1)
    sim.at(0.1, lambda: [link.send(Packet("p", 100)) for _ in range(4)])
    sim.run(until=0.2)
    assert link.drops > 0
    assert obs.summary()["counters"][f"{link}.drops"] == link.drops


def test_drop_delay_dup_ladder_is_replayable():
    def campaign():
        sim, link = _link_world()
        plan = single_fault_plan(
            FaultKind.DROP_DELAY_DUP, at=0.0, duration=10.0, scope="l",
            seed=7, drop_p=0.3, dup_p=0.3, delay_p=0.2, delay=0.05,
        )
        LinkFaultInjector(sim, plan.faults[0], link, plan).arm()
        _send_at(sim, link, [0.1 * i + 0.05 for i in range(50)])
        sim.run(until=11.0)
        return (link.fault_drops, link.fault_dups, link.fault_delays)

    first = campaign()
    assert sum(first) > 0                  # the ladder actually fired
    assert campaign() == first             # bit-for-bit replay


def test_link_injector_rejects_foreign_kinds():
    sim, link = _link_world()
    plan = single_fault_plan(FaultKind.LEASE_STORM, at=0.0, duration=1.0,
                             scope="l", seed=0)
    with pytest.raises(InjectorError):
        LinkFaultInjector(sim, plan.faults[0], link, plan)


def test_rearming_an_injector_is_an_error():
    sim, link = _link_world()
    plan = single_fault_plan(FaultKind.PARTITION, at=1.0, duration=1.0,
                             scope="l", seed=0)
    injector = LinkFaultInjector(sim, plan.faults[0], link, plan).arm()
    with pytest.raises(InjectorError):
        injector.arm()


# -- BusNoiseInjector --------------------------------------------------------


def _bus_world():
    sim = Simulator(seed=0)
    timing = BusTiming()
    bus = TpwireBus(sim, timing, name="bus")
    return sim, bus


def test_bus_noise_installs_then_quiets_a_model():
    sim, bus = _bus_world()
    assert bus.error_model is None
    plan = single_fault_plan(FaultKind.NOISY_BURST, at=1.0, duration=1.0,
                             scope="bus", seed=0, p_tx=0.4, p_rx=0.3)
    injector = BusNoiseInjector(sim, plan.faults[0], bus, plan).arm()
    sim.run(until=1.5)
    model = bus.error_model
    assert injector.active
    assert model is not None
    assert model.p_tx == pytest.approx(0.4)
    assert model.p_rx == pytest.approx(0.3)
    sim.run(until=3.0)
    # The injector installed the model, so "restore" means silence.
    assert not injector.active
    assert bus.error_model.p_tx == 0.0
    assert bus.error_model.p_rx == 0.0


def test_bus_noise_restores_preexisting_probabilities():
    sim, bus = _bus_world()
    bus.error_model = BitErrorModel(sim, p_tx=0.01, p_rx=0.02)
    plan = single_fault_plan(FaultKind.NOISY_BURST, at=1.0, duration=1.0,
                             scope="bus", seed=0)
    BusNoiseInjector(sim, plan.faults[0], bus, plan).arm()
    sim.run(until=3.0)
    assert bus.error_model.p_tx == pytest.approx(0.01)
    assert bus.error_model.p_rx == pytest.approx(0.02)


# -- SlaveCrashInjector ------------------------------------------------------


def test_slave_crash_power_cycles():
    sim = Simulator(seed=0)
    timing = BusTiming()
    slave = TpwireSlave(sim, node_id=1, timing=timing)
    plan = single_fault_plan(FaultKind.CRASH_RESTART, at=1.0, duration=1.0,
                             scope="slave", seed=0)
    SlaveCrashInjector(sim, plan.faults[0], slave).arm()
    assert slave.powered
    sim.run(until=1.5)
    assert not slave.powered
    sim.run(until=2.5)
    assert slave.powered


# -- CallbackInjector and arm_plan -------------------------------------------


def test_callback_injector_fires_begin_and_end_in_order():
    sim = Simulator(seed=0)
    plan = single_fault_plan(FaultKind.SLOW_CONSUMER, at=1.0, duration=2.0,
                             scope="c", seed=0)
    events = []
    CallbackInjector(
        sim, plan.faults[0],
        on_begin=lambda: events.append(("begin", sim.now)),
        on_end=lambda: events.append(("end", sim.now)),
    ).arm()
    sim.run(until=5.0)
    assert [name for name, _t in events] == ["begin", "end"]
    assert events[0][1] == pytest.approx(1.0)
    assert events[1][1] == pytest.approx(3.0)


def test_arm_plan_resolves_targets_by_scope():
    sim, link = _link_world()
    timing = BusTiming()
    bus = TpwireBus(sim, timing, name="bus")
    slave = TpwireSlave(sim, node_id=1, timing=timing)
    plan = FaultPlan(seed=0, faults=(
        fault(FaultKind.PARTITION, at=1.0, duration=1.0, scope="l"),
        fault(FaultKind.NOISY_BURST, at=1.0, duration=1.0, scope="bus"),
        fault(FaultKind.CRASH_RESTART, at=1.0, duration=1.0, scope="slave"),
        fault(FaultKind.LEASE_STORM, at=2.0, scope="space"),
    ))
    armed = arm_plan(sim, plan, {"l": link, "bus": bus, "slave": slave},
                     skip_kinds=(FaultKind.LEASE_STORM,))
    kinds = {type(injector) for injector in armed}
    assert kinds == {LinkFaultInjector, BusNoiseInjector, SlaveCrashInjector}


def test_arm_plan_rejects_unmatched_scope():
    sim, link = _link_world()
    plan = single_fault_plan(FaultKind.PARTITION, at=1.0, duration=1.0,
                             scope="elsewhere", seed=0)
    with pytest.raises(InjectorError):
        arm_plan(sim, plan, {"l": link})


def test_make_injector_rejects_unusable_target():
    sim, _link = _link_world()
    plan = single_fault_plan(FaultKind.CRASH_RESTART, at=1.0, duration=1.0,
                             scope="x", seed=0)
    with pytest.raises(InjectorError):
        make_injector(sim, plan.faults[0], object(), plan)
