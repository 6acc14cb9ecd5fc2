"""Event budget of the bit-level PHY.

Runs the ``test_phy_edges`` cycle script — ten cycles of every kind over
a 3-slave chain — under a heap that counts the entries it hands to the
run loop, and pins the count.  The PHY schedules whole frames: one event
per committed level change, plus a few wake-ups per frame (each slave's
start bit and last sample, the upstream INT decision, the master's
firmware wait, end of transmission and last RX sample).  Sampling every
bit slot again would multiply the count, and this test fails on the
count, not on a timing.
"""

from __future__ import annotations

from repro.des import Simulator
from tests.hw.test_kernel_signal import _CountingHeap
from tests.hw.test_phy_edges import run_scenario

#: Events and TpWIRE frames (10 TX, 7 RX) of the script: 34.8 events per
#: frame.  The PHY that woke at every sampled bit slot took 1,483 events
#: (87.2 per frame) for the same wire.
EVENTS = 592
FRAMES = 17


def _count():
    heap = _CountingHeap()
    sim = Simulator(scheduler=heap, seed=7)
    bus = run_scenario(sim, lambda label, result: None)
    return heap.events, bus.tx_frames + bus.rx_frames


def test_event_count_is_pinned():
    events, frames = _count()
    assert (events, frames) == (EVENTS, FRAMES)


def test_events_per_frame_stay_per_frame():
    events, frames = _count()
    assert events / frames <= 50
