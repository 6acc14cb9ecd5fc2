"""Delta-cycle kernel with SystemC evaluate/update semantics.

The kernel piggybacks on a :class:`repro.des.Simulator`: every delta step
is one high-priority event at the current simulation time.  Within a step:

1. *evaluate* — every runnable thread process resumes until its next
   ``yield``;
2. *update* — signals written during evaluation commit their new values;
   value changes notify sensitive processes, which become runnable in the
   *next* delta step.

Steps repeat at the same timestamp until no process is runnable and no
update is pending, then simulated time advances — exactly SystemC's
scheduler contract, which is what makes the bit-level TpWIRE PHY race-free.

Timed delta steps
-----------------

A timed wake-up (:meth:`HwKernel.notify_after`, :meth:`HwKernel.wake_at`)
or a timed write (:meth:`HwKernel.write_at`) is one event whose callback
runs its delta step inline, instead of queueing a second, delta-priority
event for the same instant.  Timed entries use :data:`TIMED_PRIORITY`,
above :attr:`~HwKernel.DELTA_PRIORITY`, so when one pops no delta step is pending at its instant, and the one it
would queue would be the very next pop.

Likewise a signal written while a step runs rides that step's update
phase: the step queues a follow-up delta only when a process is left
runnable, rather than on every write, so no empty delta step is ever
dispatched.

Event keys
----------

The bit-level PHY works per frame (:mod:`repro.hw.tpwire_phy`), so many
of its timed entries are queued earlier than a loop that woke at every
bit slot queued them:

* the master's level changes at bit slots 1-15 and its end-of-frame
  wake-up, queued as the frame starts, not one bit before each;
* a reply's level changes and its end wake-up, queued at the last
  sample of the TX frame, not one bit before each;
* a repeater's forward of slot k, queued as the input edge commits,
  half a bit before the sample that queued it;
* a slave's last-sample wake-up (decode, CRC check, ``receive_tx``) and
  its upstream wake-up at the second sample (the INT read), queued at
  the start bit, and the master's last RX sample, queued as it detects
  the start bit — each, before, queued one bit ahead.

With the simulator's sequence numbers an entry queued earlier draws a
lower number and runs before same-instant entries it used to follow.
Exact ties are common: with a whole-bit hop delay the forwards of
several slaves and the master's own edges land on one float, so the
order in which lines commit would change, and with it whether a sample
sees an edge on its very instant.

So a timed entry carries a *key* in the place of its sequence number:
the tuple ``(time, priority, parent, index)``, where ``parent`` is the
key of the event that queued it (for a scheduled frame, the key of the
bit-slot wake-up that would have queued it) and ``index`` its place
among that event's scheduling calls.  Sequence numbers order
same-instant entries by when they were queued; when they were queued is
the order of their parents, which is the order of the parents' keys, and
so on up.  Tuples compare element by element, so comparing two keys
compares exactly that chain, and a key-ordered queue pops timed entries
in the order the per-bit loop's sequence numbers gave them, however
early each was queued.  A slot wake-up that no longer runs still has a
key, built from the float additions the loop made
(``s = s + bit_period``), as the parent of what it would have queued.
Delta steps keep sequence numbers (one is pending at a time, and their
priority puts them first); their keys serve as parents only.

Two keys never tie: siblings differ in ``index``, and a sample's forward
and the next sample take indices 0 and 1, as the loop queued the
forward first.  Each master cycle starts from a fresh root at its
firmware wake-up (:meth:`HwKernel.root_key`), so a key holds at most one
cycle of ancestry.  Two keys of one cycle share that root, or an
ancestor nearer to them; a comparison across cycles reaches it only
through an unbroken chain of exact ties down to the firmware wake-up's
own instant, which none of the timed-order goldens (every transition of
33 runs over nine timings and four chain depths) produces.

Keys do not order a timed entry against a priority-0 model event at the
same instant: the entry runs first.  The per-bit kernel ordered the two
by sequence number, so they differ only for a model event queued before
the entry's per-bit queueing instant (at most a few bits earlier) that
lands on the very float the bit grid produced — say an application
raising INT exactly at a repeater's second sample, or touching a
slave's registers exactly at its last sample.  Model events run on
their own clocks.  The ones that do share an instant with timed entries
are the zero-delay process resumptions queued by the PHY's own cycle
completions, which follow every timed entry at that instant under both
rules (the PHY queues no timed entry with zero delay): 209 such instants
in a ``fullstack_bitlevel`` pass, and no other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.des.event import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.signal import Signal

#: Parent of a root key: sorts before every key.
ROOT = ()
#: Event priority of keyed timed entries: after the delta steps at their
#: instant, before ordinary model events.
TIMED_PRIORITY = -1


class HwKernel:
    """Evaluate/update scheduler layered on the event kernel."""

    #: Event priority of delta steps: below normal events so that all
    #: deltas at time t settle before ordinary model events at t run.
    DELTA_PRIORITY = -10

    def __init__(self, sim):
        self.sim = sim
        # Keyed entries go straight to the pending-event queue: the
        # simulator's scheduling calls would stamp a sequence number
        # where the key belongs.
        self._queue = sim._queue
        self._push_entry = sim._queue.push_entry
        self._runnable: list = []
        self._runnable_set: set = set()
        self._pending_updates: list["Signal"] = []
        #: True from the moment a delta step is queued until it has run.
        self._delta_scheduled = False
        self._delta_key: tuple = ROOT
        #: Key of the step running now; ``None`` between steps.
        self.key = None
        self._calls = 0
        self._roots = 0
        self.delta_count = 0

    def make_runnable(self, process) -> None:
        """Queue a process for the next evaluate phase."""
        if process in self._runnable_set:
            return
        self._runnable.append(process)
        self._runnable_set.add(process)
        if not self._delta_scheduled:
            self._schedule_delta()

    def request_update(self, signal: "Signal") -> None:
        """Queue a signal for the next update phase.

        A signal requests once per pending value (``Signal.write`` keeps
        that flag), so the queue needs no duplicate check."""
        self._pending_updates.append(signal)
        if not self._delta_scheduled:
            self._schedule_delta()

    # -- keys ------------------------------------------------------------------

    def root_key(self, time: float) -> tuple:
        """A key with no parent, ordered after every earlier root."""
        self._roots += 1
        return (time, 0, ROOT, self._roots)

    def child_key(self, time: float) -> tuple:
        """Key of the running step's next scheduling call, due at
        ``time`` (a root key outside a step)."""
        if self.key is None:
            return self.root_key(time)
        self._calls += 1
        return (time, 0, self.key, self._calls)

    # -- timed delta steps ---------------------------------------------------

    def notify_after(self, delay: float, process) -> None:
        """Resume a process after a timed wait."""
        self.wake_at(self.child_key(self.sim.now + delay), process)

    def notify_at(self, time: float, process) -> Event:
        """Resume a process at absolute ``time``; returns the cancellable
        :class:`~repro.des.event.Event`."""
        key = self.child_key(time)
        event = Event(time, key, self._timed_wake, (key, process), TIMED_PRIORITY)
        self._queue.push(event)
        return event

    def wake_at(self, key: tuple, process) -> None:
        """Resume a process as the timed event ``key``."""
        self._push_entry((key[0], TIMED_PRIORITY, key, self._timed_wake, (key, process)))

    def write_at(self, key: tuple, signal: "Signal", value) -> None:
        """Write ``value`` to ``signal`` as the timed event ``key``; it
        commits in that event's step."""
        self._push_entry(
            (key[0], TIMED_PRIORITY, key, self._timed_write, (key, signal, value))
        )

    def _timed_wake(self, key: tuple, process) -> None:
        assert not self._delta_scheduled, "timed wake with a delta pending"
        self._delta_scheduled = True
        self._runnable.append(process)
        self._runnable_set.add(process)
        self._step(key)

    def _timed_write(self, key: tuple, signal: "Signal", value) -> None:
        # The step with nothing to evaluate and one update: commit.
        assert not self._delta_scheduled, "timed write with a delta pending"
        self._delta_scheduled = True
        self.key = key
        self._calls = 0
        self.delta_count += 1
        signal._pending = value
        signal.apply_update()
        if self._runnable or self._pending_updates:
            self._schedule_delta()
        else:
            self._delta_scheduled = False
        self.key = None

    # -- delta machinery -----------------------------------------------------

    def _schedule_delta(self) -> None:
        self._delta_scheduled = True
        now = self.sim.now
        if self.key is None:
            self._roots += 1
            self._delta_key = (now, self.DELTA_PRIORITY, ROOT, self._roots)
        else:
            self._delta_key = (now, self.DELTA_PRIORITY, self.key, 0)
        self.sim.call_at(now, self._delta_step, priority=self.DELTA_PRIORITY)

    def _delta_step(self) -> None:
        self._step(self._delta_key)

    def _step(self, key: tuple) -> None:
        # ``_delta_scheduled`` stays set while the step runs: writes made
        # during evaluate commit in this step's update phase, and wake-ups
        # made in either phase are queued once, below.
        self.key = key
        self._calls = 0
        self.delta_count += 1
        # Evaluate phase.
        runnable, self._runnable = self._runnable, []
        self._runnable_set.clear()
        for process in runnable:
            process.run()
        # Update phase.
        updates, self._pending_updates = self._pending_updates, []
        for signal in updates:
            signal.apply_update()
        if self._runnable or self._pending_updates:
            self._schedule_delta()
        else:
            self._delta_scheduled = False
        self.key = None
