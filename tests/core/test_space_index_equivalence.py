"""Indexed engine vs reference linear-scan oracle (randomized equivalence).

The matching index in :mod:`repro.core.index` is a pure pruning layer: it
must never change *which* record an operation returns, only how many
candidates are inspected on the way.  This test drives random
interleavings of write / read / take / lease renew / lease cancel /
lease expiry against

* the real :class:`TupleSpace` (indexed matching, heap-driven expiry), and
* :class:`LinearScanSpace`, a deliberately naive oracle that scans every
  record in timestamp order and expires every due lease at the start of
  each operation — the engine's intended semantics, minus every data
  structure,

and asserts that both return identical items and accumulate identical
operation statistics after every step.

Items mix :class:`LindaTuple` and :class:`Entry` subclasses so both index
families (arity/first-bound-field buckets and class/field buckets) are
exercised, including subclass matching and wildcard-only templates that
degrade to whole-bucket or whole-space scans.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core import (
    ANY,
    Entry,
    LindaTuple,
    ManualClock,
    TupleSpace,
    TupleTemplate,
)
from repro.core.errors import LeaseExpiredError
from repro.core.lease import FOREVER

KEYS = ["a", "b", "c"]
VALUES = [0, 1, 2]


class Sensor(Entry):
    def __init__(self, sensor=None, value=None):
        self.sensor = sensor
        self.value = value


class HotSensor(Sensor):
    def __init__(self, sensor=None, value=None, level=None):
        super().__init__(sensor, value)
        self.level = level


# -- the oracle -------------------------------------------------------------


class _OracleRecord:
    __slots__ = ("seq", "item", "expires_at", "cancelled", "dropped")

    def __init__(self, seq, item, expires_at):
        self.seq = seq
        self.item = item
        self.expires_at = expires_at
        self.cancelled = False
        self.dropped = False


class LinearScanSpace:
    """Reference semantics with no index: scan everything, oldest first.

    Mirrors :class:`TupleSpace` observable behaviour — lease clamping,
    eager expiry of every due lease at the start of each matching
    operation — using nothing but a seq-ordered list.
    """

    def __init__(self, clock, max_lease=FOREVER, default_lease=FOREVER):
        self.clock = clock
        self.max_lease = max_lease
        self.default_lease = default_lease
        self.records = []  # live records in ascending seq (timestamp) order
        self.seq = 0
        self.stats = {"writes": 0, "reads": 0, "takes": 0, "misses": 0,
                      "expirations": 0, "notifications": 0}

    def write(self, item, lease=None):
        self.seq += 1
        requested = self.default_lease if lease is None else lease
        granted = min(requested, self.max_lease)
        rec = _OracleRecord(self.seq, item, self.clock.now() + granted)
        self.records.append(rec)
        self.stats["writes"] += 1
        return rec

    def _drop(self, rec):
        self.records.remove(rec)
        rec.dropped = True

    def _expire_due(self):
        now = self.clock.now()
        for rec in [r for r in self.records if r.expires_at <= now]:
            self._drop(rec)
            self.stats["expirations"] += 1

    def _find(self, template):
        self._expire_due()
        for rec in self.records:
            if template.matches(rec.item):
                return rec
        return None

    def read_if_exists(self, template):
        rec = self._find(template)
        if rec is None:
            self.stats["misses"] += 1
            return None
        self.stats["reads"] += 1
        return rec.item

    def take_if_exists(self, template):
        rec = self._find(template)
        if rec is None:
            self.stats["misses"] += 1
            return None
        self._drop(rec)
        self.stats["takes"] += 1
        return rec.item

    def sweep_expired(self):
        self._expire_due()

    # -- lease handle operations (the engine side goes through Lease) --

    def renew(self, rec, duration):
        if rec.cancelled or self.clock.now() >= rec.expires_at:
            raise LeaseExpiredError("cannot renew an expired lease")
        granted = min(duration, self.max_lease)
        rec.expires_at = self.clock.now() + granted
        return granted

    def cancel(self, rec):
        if rec.cancelled:
            return
        rec.cancelled = True
        if not rec.dropped:
            self._drop(rec)

    def visible_count(self):
        now = self.clock.now()
        return sum(1 for r in self.records if r.expires_at > now)


# -- strategies -------------------------------------------------------------

_keys = st.sampled_from(KEYS)
_values = st.sampled_from(VALUES)

_items = st.one_of(
    st.tuples(_keys, _values).map(lambda kv: LindaTuple(*kv)),
    st.tuples(_keys, _values).map(lambda kv: Sensor(sensor=kv[0], value=kv[1])),
    st.tuples(_keys, _values).map(
        lambda kv: HotSensor(sensor=kv[0], value=kv[1], level=kv[1])
    ),
    # Unhashable fields: these records land in the index's "loose"
    # buckets and must still be merged into every candidate lookup.
    # Sets compare equal to frozensets, so a hashable frozenset template
    # actual can match an unhashable stored set — the case the loose
    # buckets exist for.
    st.tuples(_keys, _values).map(lambda kv: LindaTuple({kv[0]}, kv[1])),
    st.tuples(_keys, _values).map(lambda kv: LindaTuple(kv[0], {kv[1]})),
    st.tuples(_keys, _values).map(
        lambda kv: Sensor(sensor=kv[0], value={kv[1]})
    ),
)

_templates = st.one_of(
    _keys.map(lambda k: TupleTemplate(k, int)),
    _keys.map(lambda k: TupleTemplate(k, ANY)),
    _values.map(lambda v: TupleTemplate(ANY, v)),     # first bound at pos 1
    st.tuples(_keys, _values).map(lambda kv: TupleTemplate(*kv)),
    st.just(TupleTemplate(str, int)),                 # all formal: arity scan
    _keys.map(lambda k: Sensor(sensor=k)),
    _values.map(lambda v: Sensor(value=v)),
    st.just(Sensor()),                                # class-bucket scan
    _keys.map(lambda k: HotSensor(sensor=k)),
    st.just(Entry()),                                 # matches every entry
    # Hashable frozenset actuals that equal unhashable stored sets: only
    # the loose-bucket merge can surface those records.
    _keys.map(lambda k: TupleTemplate(frozenset({k}), int)),
    _values.map(lambda v: TupleTemplate(ANY, frozenset({v}))),
    _values.map(lambda v: Sensor(value=frozenset({v}))),
    # Unhashable template actuals force the full-bucket fallback paths.
    _keys.map(lambda k: TupleTemplate({k}, int)),
    _values.map(lambda v: Sensor(value={v})),
)

_leases = st.one_of(
    st.none(),
    st.sampled_from([3.0, 12.0, 40.0]),
    st.just(FOREVER),
)


class EquivalenceMachine(RuleBasedStateMachine):
    """Drives TupleSpace and LinearScanSpace in lockstep."""

    MAX_LEASE = 30.0

    @initialize()
    def setup(self):
        self.clock = ManualClock()
        self.space = TupleSpace(clock=self.clock, max_lease=self.MAX_LEASE)
        self.oracle = LinearScanSpace(self.clock, max_lease=self.MAX_LEASE)
        #: (engine Lease, oracle record) pairs, for renew/cancel rules
        self.handles = []

    # -- plain operations ----------------------------------------------

    @rule(item=_items, lease=_leases)
    def write(self, item, lease):
        granted = self.space.write(item, lease=lease)
        rec = self.oracle.write(item, lease=lease)
        # Exact equality is intended: both sides compute now() + clamp(lease)
        # with the same float operations on the same clock reading.
        assert granted.expires_at == rec.expires_at  # lint: disable=float-time-eq
        self.handles.append((granted, rec))

    @rule(template=_templates)
    def read(self, template):
        got = self.space.read_if_exists(template)
        expected = self.oracle.read_if_exists(template)
        assert got == expected

    @rule(template=_templates)
    def take(self, template):
        got = self.space.take_if_exists(template)
        expected = self.oracle.take_if_exists(template)
        assert got == expected

    @rule(delta=st.sampled_from([0.5, 2.0, 7.0, 25.0]))
    def advance_clock(self, delta):
        self.clock.advance(delta)

    @rule()
    def sweep(self):
        self.space.sweep_expired()
        self.oracle.sweep_expired()

    # -- lease handles --------------------------------------------------

    @precondition(lambda self: self.handles)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6),
          duration=st.sampled_from([4.0, 15.0, 100.0]))
    def renew(self, pick, duration):
        lease, rec = self.handles[pick % len(self.handles)]
        engine_granted = engine_raised = None
        oracle_granted = oracle_raised = None
        try:
            engine_granted = lease.renew(duration)
        except LeaseExpiredError as exc:
            engine_raised = type(exc)
        try:
            oracle_granted = self.oracle.renew(rec, duration)
        except LeaseExpiredError as exc:
            oracle_raised = type(exc)
        assert engine_raised == oracle_raised
        assert engine_granted == oracle_granted

    @precondition(lambda self: self.handles)
    @rule(pick=st.integers(min_value=0, max_value=10 ** 6))
    def cancel(self, pick):
        lease, rec = self.handles[pick % len(self.handles)]
        lease.cancel()
        self.oracle.cancel(rec)

    # -- invariants ------------------------------------------------------

    @invariant()
    def stats_agree(self):
        if getattr(self, "space", None) is None:
            return
        assert self.space.stats.as_dict() == self.oracle.stats

    @invariant()
    def visible_counts_agree(self):
        if getattr(self, "space", None) is None:
            return
        assert len(self.space) == self.oracle.visible_count()


class UncappedEquivalenceMachine(EquivalenceMachine):
    """Same workload with no lease cap: FOREVER leases stay infinite, so
    records skip the expiry heap entirely and renewals are unclamped."""

    MAX_LEASE = FOREVER


class LeaseStormMachine(EquivalenceMachine):
    """Equivalence under lease-expiry storms (chaos fault class 5).

    Adds two rules to the base workload: a *storm write* that leases a
    whole batch of tuples to die at one shared instant, and a clock jump
    that lands **exactly on** that instant — the ``expires_at <= now``
    boundary where the engine's expiry heap must agree with the oracle's
    eager scan.  Interleaved with the inherited renew/cancel/take rules,
    this drives the heap's lazy-invalidation paths (stale entries for
    renewed or cancelled leases popped at the storm boundary) against
    hundreds of simultaneous deadlines.
    """

    @initialize()
    def setup_storm(self):
        #: expiry instants of pending storms, for the exact-landing rule
        self.storm_instants = []

    @rule(count=st.sampled_from([5, 25, 80]),
          lease=st.sampled_from([3.0, 12.0]), value=_values)
    def storm_write(self, count, lease, value):
        for _ in range(count):
            item = LindaTuple("storm", value)
            granted = self.space.write(item, lease=lease)
            rec = self.oracle.write(item, lease=lease)
            self.handles.append((granted, rec))
        # Both sides computed now() + clamp(lease) identically, so one
        # shared instant describes the whole doomed batch.
        self.storm_instants.append(self.clock.now() + lease)

    @precondition(lambda self: getattr(self, "storm_instants", None))
    @rule()
    def land_on_storm_instant(self):
        instant = min(self.storm_instants)
        self.storm_instants = [t for t in self.storm_instants if t > instant]
        if instant > self.clock.now():
            self.clock.set(instant)

    @rule(template=st.just(TupleTemplate("storm", ANY)))
    def take_storm(self, template):
        got = self.space.take_if_exists(template)
        expected = self.oracle.take_if_exists(template)
        assert got == expected


TestIndexEquivalence = EquivalenceMachine.TestCase
TestIndexEquivalence.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)

TestIndexEquivalenceUncapped = UncappedEquivalenceMachine.TestCase
TestIndexEquivalenceUncapped.settings = settings(
    max_examples=25, stateful_step_count=50, deadline=None
)

TestIndexEquivalenceLeaseStorm = LeaseStormMachine.TestCase
TestIndexEquivalenceLeaseStorm.settings = settings(
    max_examples=25, stateful_step_count=50, deadline=None
)


def test_mass_simultaneous_expiry_drains_the_heap_lazily():
    """Deterministic storm: 500 leases die at one instant while 100 were
    cancelled and 50 renewed past it — the heap's stale entries for both
    groups are invalidated lazily at the boundary, never double-counted."""
    clock = ManualClock()
    space = TupleSpace(clock=clock)
    leases = [
        space.write(LindaTuple("storm", index), lease=5.0)
        for index in range(500)
    ]
    for lease in leases[:100]:
        lease.cancel()
    for lease in leases[100:150]:
        lease.renew(20.0)          # stale (t=5) heap entries left behind

    clock.set(5.0)                 # exactly the storm instant
    swept = space.sweep_expired()
    assert swept == 350            # 500 - 100 cancelled - 50 renewed
    assert space.stats.expirations == 350
    assert len(space) == 50
    # Lazy invalidation has drained every stale deadline by now: only
    # the renewed generation's live entries may remain.
    assert len(space._expiry_heap) <= 50

    clock.set(25.0)
    assert space.sweep_expired() == 50
    assert space.stats.expirations == 400
    assert len(space) == 0
    assert space._expiry_heap == []


def test_storm_boundary_is_inclusive_for_engine_and_oracle():
    """`expires_at <= now` on both sides: landing exactly on the shared
    deadline expires the whole batch in the same operation."""
    clock = ManualClock()
    space = TupleSpace(clock=clock)
    oracle = LinearScanSpace(clock)
    for index in range(20):
        space.write(LindaTuple("storm", index), lease=2.0)
        oracle.write(LindaTuple("storm", index), lease=2.0)
    clock.set(2.0)
    template = TupleTemplate("storm", ANY)
    assert space.take_if_exists(template) is None
    assert oracle.take_if_exists(template) is None
    assert space.stats.as_dict() == oracle.stats
    assert space.stats.expirations == 20


def test_churn_under_a_long_lease_keeps_the_heap_bounded():
    """Taken records leave their deadline in the heap; under churn's
    160 s lease none pops, so without compaction the heap would hold one
    entry per write ever made."""
    space = TupleSpace(clock=ManualClock())
    space.write(LindaTuple("resident", 0), lease=160.0)
    template = TupleTemplate("job", int)
    for index in range(10_000):
        space.write(LindaTuple("job", index), lease=160.0)
        assert space.take_if_exists(template) == LindaTuple("job", index)
    live = len(space._records)
    assert live == 1
    assert len(space._expiry_heap) <= max(64, 2 * live)


def test_compaction_keeps_every_live_deadline():
    """Rebuilding the heap mid-churn keeps renewed and untouched
    records expiring at their own deadlines, exactly like the oracle."""
    clock = ManualClock()
    space = TupleSpace(clock=clock)
    oracle = LinearScanSpace(clock)
    pairs = [
        (space.write(LindaTuple("keep", index), lease=50.0),
         oracle.write(LindaTuple("keep", index), lease=50.0))
        for index in range(100)
    ]
    for index, (lease, rec) in enumerate(pairs[:40]):
        lease.renew(20.0 + index)      # earlier than the first grant
        oracle.renew(rec, 20.0 + index)
    template = TupleTemplate("job", int)
    for index in range(1_000):
        space.write(LindaTuple("job", index), lease=160.0)
        oracle.write(LindaTuple("job", index), lease=160.0)
        assert space.take_if_exists(template) == oracle.take_if_exists(template)
    assert len(space._expiry_heap) <= max(64, 2 * len(space._records))
    keep = TupleTemplate("keep", int)
    for when in (20.0, 39.0, 45.0, 50.0, 59.0):
        clock.set(when)
        space.sweep_expired()
        oracle.sweep_expired()
        assert space.read_if_exists(keep) == oracle.read_if_exists(keep)
        assert space.stats.as_dict() == oracle.stats
    assert space.stats.expirations == 100
