"""Event budget of the master relay on the packet-level bus.

Runs the 1-wire, 0 B/s cell of Table 4 under a heap that counts the
entries it hands to the run loop, and pins the count together with the
bus cycles and the master's transactions.  The packet bus dispatches
about one event per communication cycle; the relay chains each mailbox
byte's cycle from the previous cycle's completion at the same instant,
so it must add no event of its own: a zero-delay resumption or a
deferred submission per byte would show up here as extra events, and
this test fails on the count, not on a timing.
"""

from __future__ import annotations

from repro.cosim import CaseStudyConfig, CaseStudyScenario
from tests.hw.test_kernel_signal import _CountingHeap

#: DES events, bus cycles and master transactions of the cell: 1.035
#: events per cycle, and one transaction per cycle on a clean line.
EVENTS = 6826
CYCLES = 6594
TRANSACTIONS = 6594


def _count():
    heap = _CountingHeap()
    scenario = CaseStudyScenario(
        CaseStudyConfig(wires=1, cbr_rate_bytes_per_s=0.0, scheduler=heap)
    )
    result = scenario.run(max_sim_time=4000.0)
    assert result.completed
    system = scenario.system
    return heap.events, system.bus.cycles, system.master.transactions


def test_event_count_is_pinned():
    assert _count() == (EVENTS, CYCLES, TRANSACTIONS)


def test_relay_adds_no_event_per_cycle():
    events, cycles, _transactions = _count()
    assert events / cycles < 1.1
