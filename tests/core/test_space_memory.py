"""What a stored entry costs the space, and what a mutated one leaves.

The budget is the space's own bookkeeping per entry: its record, lease,
class and value buckets and the snapshot of filed values, traced with
``tracemalloc`` while the items themselves are built beforehand.
"""

import gc
import tracemalloc

from repro.core import Entry, TupleSpace

ENTRIES = 5_000
#: Bytes per stored three-field entry (CPython 3.11: about 500).
BUDGET = 700


class Part(Entry):
    def __init__(self, key=None, station=None, weight=None):
        self.key = key
        self.station = station
        self.weight = weight


def part(key: int) -> Part:
    return Part(key, f"st{key * 7 % 61:02d}", key * 31 % 997 / 8.0)


def test_a_stored_entry_costs_the_space_under_budget():
    items = [part(key) for key in range(ENTRIES)]
    space = TupleSpace()
    gc.collect()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        for item in items:
            space.write(item)
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(space) == ENTRIES
    assert (after - before) / ENTRIES <= BUDGET


def test_an_entry_mutated_after_write_leaves_no_bucket():
    space = TupleSpace()
    item = part(1)
    space.write(item)
    item.key, item.station = 99, None
    assert space.take_if_exists(Part()) is item
    index = space._index
    assert len(index) == 0
    assert index.bucket_count() == 0
    assert space.read_if_exists(Part(key=1)) is None
    assert space.read_if_exists(Part(station="st07")) is None
