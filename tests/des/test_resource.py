"""Resources and stores."""

import pytest

from repro.des import Resource, Simulator, Store
from repro.des.errors import SimulationError


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_grants_up_to_capacity(self, sim):
        resource = Resource(sim, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert resource.in_use == 2
        assert resource.queue_length == 1

    def test_release_grants_next_in_fifo_order(self, sim):
        resource = Resource(sim, capacity=1)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        resource.release(first)
        assert second.triggered and not third.triggered
        resource.release(second)
        assert third.triggered

    def test_release_unheld_raises(self, sim):
        resource = Resource(sim, capacity=1)
        resource.request()
        ghost = resource.request()
        with pytest.raises(SimulationError):
            resource.release(ghost)

    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_mutual_exclusion_in_processes(self, sim):
        resource = Resource(sim, capacity=1)
        active = []
        max_active = []

        def worker(name):
            request = resource.request()
            yield request
            active.append(name)
            max_active.append(len(active))
            yield sim.timeout(1.0)
            active.remove(name)
            resource.release(request)

        for name in "abc":
            sim.spawn(worker(name))
        sim.run()
        assert max(max_active) == 1
        assert sim.now == 3.0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("item")
        got = store.get()
        assert got.triggered and got.value == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            item = yield store.get()
            got.append((sim.now, item))

        sim.spawn(consumer())
        sim.after(2.0, store.put, "late")
        sim.run()
        assert got == [(2.0, "late")]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        assert [store.get().value for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_multiple_getters_fifo(self, sim):
        store = Store(sim)
        order = []

        def consumer(name):
            item = yield store.get()
            order.append((name, item))

        sim.spawn(consumer("first"))
        sim.spawn(consumer("second"))
        sim.after(1.0, store.put, "x")
        sim.after(2.0, store.put, "y")
        sim.run()
        assert order == [("first", "x"), ("second", "y")]

