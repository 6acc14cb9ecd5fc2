"""Service discovery over the space."""

import pytest

from repro.core import ManualClock, ServiceRegistry, TupleSpace
from repro.core.discovery import ServiceEntry
from repro.core.errors import SpaceError


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def registry(clock):
    return ServiceRegistry(TupleSpace(clock=clock))


def fft_service(node="node-3"):
    return ServiceEntry(
        name="fft-1", kind="fft", node=node,
        schema="fft-v1", attributes={"fpu": True},
    )


class TestSchemas:
    def test_register_and_get(self, registry):
        registry.register_schema("fft-v1", "<schema name='fft'/>")
        assert "fft" in registry.get_schema("fft-v1")
        assert registry.schema_names() == ["fft-v1"]

    def test_unknown_schema_raises(self, registry):
        with pytest.raises(SpaceError):
            registry.get_schema("nope")

    def test_empty_name_rejected(self, registry):
        with pytest.raises(SpaceError):
            registry.register_schema("", "x")


class TestRegistration:
    def test_register_and_lookup(self, registry):
        registry.register_schema("fft-v1", "<schema/>")
        registry.register(fft_service())
        found = registry.lookup(kind="fft")
        assert len(found) == 1
        assert found[0].name == "fft-1"

    def test_service_needs_name_and_kind(self, registry):
        with pytest.raises(SpaceError):
            registry.register(ServiceEntry(name="x"))
        with pytest.raises(SpaceError):
            registry.register(ServiceEntry(kind="x"))

    def test_unknown_schema_reference_rejected(self, registry):
        with pytest.raises(SpaceError):
            registry.register(fft_service())  # fft-v1 not registered yet

    def test_lease_expiry_unregisters(self, registry, clock):
        """Sec. 2.1: crashed devices vanish without central control."""
        registry.register_schema("fft-v1", "<schema/>")
        registry.register(fft_service(), lease=30.0)
        clock.advance(31.0)
        assert registry.lookup(kind="fft") == []

    def test_lease_renewal_keeps_alive(self, registry, clock):
        registry.register_schema("fft-v1", "<schema/>")
        lease = registry.register(fft_service(), lease=30.0)
        clock.advance(25.0)
        lease.renew(30.0)
        clock.advance(25.0)
        assert len(registry.lookup(kind="fft")) == 1


class TestLookup:
    def fill(self, registry):
        registry.register_schema("fft-v1", "<schema/>")
        registry.register(fft_service("node-3"))
        registry.register(ServiceEntry(name="fft-2", kind="fft",
                                       node="node-4", schema="fft-v1"))
        registry.register(ServiceEntry(name="log-1", kind="logging",
                                       node="node-3"))

    def test_lookup_by_kind(self, registry):
        self.fill(registry)
        assert len(registry.lookup(kind="fft")) == 2

    def test_lookup_by_node(self, registry):
        self.fill(registry)
        assert len(registry.lookup(node="node-3")) == 2

    def test_lookup_by_name(self, registry):
        self.fill(registry)
        assert registry.lookup(name="log-1")[0].kind == "logging"

    def test_lookup_all(self, registry):
        self.fill(registry)
        assert len(registry.lookup()) == 3

    def test_lookup_one_oldest(self, registry):
        self.fill(registry)
        assert registry.lookup_one(kind="fft").name == "fft-1"

    def test_lookup_one_missing(self, registry):
        assert registry.lookup_one(kind="ghost") is None

    def test_scaling_more_consumers_discoverable(self, registry):
        """Sec. 2.1: several instances of the same service coexist."""
        registry.register_schema("fft-v1", "<schema/>")
        for i in range(5):
            registry.register(ServiceEntry(
                name=f"fft-{i}", kind="fft", node=f"node-{i}",
                schema="fft-v1",
            ))
        assert len(registry.lookup(kind="fft")) == 5
