"""Heartbeat lease renewal (the dynamic-extension pattern of Sec. 2.1)."""

import pytest

from repro.core import ServiceRegistry, SimClock, TupleSpace
from repro.core.discovery import ServiceEntry
from repro.core.simops import LeaseKeeper
from repro.des import Simulator


@pytest.fixture
def world():
    sim = Simulator()
    space = TupleSpace(clock=SimClock(sim))
    return sim, space


class TestLeaseKeeper:
    def test_managed_lease_outlives_its_duration(self, world):
        sim, space = world
        from repro.core.tuples import LindaTuple, TupleTemplate

        keeper = LeaseKeeper(sim, check_interval=1.0)
        lease = space.write(LindaTuple("svc"), lease=5.0)
        keeper.manage(lease)
        sim.run(until=50.0)
        assert space.read_if_exists(TupleTemplate("svc")) is not None
        assert keeper.renewals >= 8

    def test_unmanaged_lease_expires(self, world):
        sim, space = world
        from repro.core.tuples import LindaTuple, TupleTemplate

        LeaseKeeper(sim, check_interval=1.0)  # exists but manages nothing
        space.write(LindaTuple("svc"), lease=5.0)
        sim.run(until=10.0)
        assert space.read_if_exists(TupleTemplate("svc")) is None

    def test_release_lets_lease_lapse(self, world):
        sim, space = world
        from repro.core.tuples import LindaTuple, TupleTemplate

        keeper = LeaseKeeper(sim, check_interval=1.0)
        lease = space.write(LindaTuple("svc"), lease=5.0)
        keeper.manage(lease)
        sim.after(20.0, keeper.release, lease)
        sim.run(until=40.0)
        assert space.read_if_exists(TupleTemplate("svc")) is None

    def test_crashed_device_advertisement_expires(self, world):
        """Stop the keeper (crash): the service vanishes on its own —
        Sec. 2.1's removal-without-central-control."""
        sim, space = world
        registry = ServiceRegistry(space)
        registry.register_schema("fft-v1", "<schema/>")
        keeper = LeaseKeeper(sim, check_interval=1.0)
        lease = registry.register(
            ServiceEntry(name="fft-1", kind="fft", node="n1",
                         schema="fft-v1"),
            lease=5.0,
        )
        keeper.manage(lease)
        sim.after(30.0, keeper.stop)
        sim.run(until=60.0)
        assert registry.lookup(kind="fft") == []

    def test_cancelled_lease_dropped_from_management(self, world):
        sim, space = world
        from repro.core.tuples import LindaTuple

        keeper = LeaseKeeper(sim, check_interval=1.0)
        lease = space.write(LindaTuple("svc"), lease=5.0)
        keeper.manage(lease)
        sim.after(2.0, lease.cancel)
        sim.run(until=20.0)
        assert len(keeper._managed) == 0

    def test_clamped_renewal_reschedules_from_granted_term(self, world):
        """A grantor may clamp renewals below the managed duration; the
        keeper must then heartbeat against the term actually granted,
        not renew on every single check forever after."""
        sim, space = world
        from repro.core.lease import Lease

        keeper = LeaseKeeper(sim, check_interval=1.0)
        # Initial term 50 s, but the grantor caps every renewal at 10 s.
        lease = Lease(space.clock, 50.0, max_duration=10.0)
        keeper.manage(lease)
        sim.run(until=41.0)
        assert not lease.expired
        # First renewal near t=26 (remaining < 25), then one per ~6 s
        # against the 10 s granted term — not one per 1 s check.
        assert 1 <= keeper.renewals <= 5
        assert keeper._managed[id(lease)][1] == 10.0

    def test_validation(self, world):
        sim, _space = world
        with pytest.raises(ValueError):
            LeaseKeeper(sim, check_interval=0.0)
        with pytest.raises(ValueError):
            LeaseKeeper(sim, renew_fraction=1.5)
