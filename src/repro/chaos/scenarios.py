"""Replayable chaos scenarios: one per fault class, with invariants.

Each scenario wires a small system (space + transport, DES network, or
tpwire bus), arms the injectors of a :class:`~repro.chaos.plan.FaultPlan`,
drives a workload through the fault window and checks the recovery
invariants of the tentpole:

* **no lost acknowledged writes** — everything the client got an ack for
  is in the space afterwards;
* **no duplicated idempotent writes** — retries under an op key never
  materialise a second tuple, and at-most-once operations never
  double-consume;
* **bounded recovery time** — the first successful operation after the
  fault window lands within ``recovery_budget`` seconds of it;
* **leases re-armed** — grants held across a front-end restart are
  re-acquired, renewals kept flowing.

Every scenario returns a :class:`ChaosResult` whose ``fingerprint`` is a
digest of the canonical event log (times, sequence numbers, outcomes —
never process-global ids such as ``Packet.uid``): running the same
scenario twice with the same plan must produce the same fingerprint,
which is the replay-determinism contract the chaos tests assert.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.chaos.errors import InvariantViolation
from repro.chaos.injectors import CallbackInjector, arm_plan
from repro.chaos.plan import FaultKind, FaultPlan, fault, single_fault_plan
from repro.chaos.transport import ChaosHost
from repro.core.agents import (
    ConsumerAgent,
    fft_request,
    fft_request_template,
    fft_result_template,
)
from repro.core.clock import ManualClock, SimClock
from repro.core.resilience import BackoffPolicy, CircuitBreaker, ResilientSpaceClient
from repro.core.server import NullTimers, SpaceServer
from repro.core.simops import LeaseKeeper, space_take
from repro.core.space import TupleSpace
from repro.core.tuples import LindaTuple, TupleTemplate
from repro.core.xmlcodec import XmlCodec
from repro.des import Simulator
from repro.net.agent import NetAgent
from repro.net.link import DuplexLink
from repro.net.node import Node
from repro.tpwire.bus import TpwireBus
from repro.tpwire.errors import BusError, SlaveError
from repro.tpwire.master import TpwireMaster
from repro.tpwire.slave import TpwireSlave
from repro.tpwire.timing import BusTiming


def _fingerprint(plan: FaultPlan, log) -> str:
    """Digest of the plan plus the canonical event log."""
    canonical = plan.fingerprint() + repr(log)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class ChaosResult:
    """Outcome of one scenario run (JSON-safe via :meth:`to_payload`)."""

    def __init__(
        self,
        kind: FaultKind,
        plan: FaultPlan,
        recovery_seconds: float,
        message_overhead: dict,
        invariants: dict,
        details: dict,
        fingerprint: str,
    ):
        self.kind = kind
        self.plan = plan
        self.recovery_seconds = recovery_seconds
        self.message_overhead = message_overhead
        self.invariants = invariants
        self.details = details
        self.fingerprint = fingerprint

    @property
    def ok(self) -> bool:
        return all(self.invariants.values())

    def check(self) -> "ChaosResult":
        """Raise :class:`InvariantViolation` naming every failed invariant."""
        failed = sorted(k for k, v in self.invariants.items() if not v)
        if failed:
            raise InvariantViolation(
                f"{self.kind.value}: invariants violated: {', '.join(failed)} "
                f"(details: {self.details})"
            )
        return self

    def to_payload(self) -> dict:
        return {
            "fault_class": self.kind.value,
            "plan": self.plan.to_dict(),
            "recovery_seconds": self.recovery_seconds,
            "message_overhead": self.message_overhead,
            "invariants": self.invariants,
            "details": self.details,
            "fingerprint": self.fingerprint,
            "ok": self.ok,
        }

    def __repr__(self) -> str:
        state = "ok" if self.ok else "VIOLATED"
        return (
            f"ChaosResult({self.kind.value}, {state}, "
            f"recovery={self.recovery_seconds:.3f}s, fp={self.fingerprint})"
        )


class ChaosScenario:
    """Base scenario: a seeded plan, a recovery budget, and a ``run()``.

    The fault plan is the class's :meth:`default_plan` for ``seed``; the
    workload size and the recovery budget are class constants.
    """

    kind: FaultKind
    #: seconds past the fault window within which recovery must land
    recovery_budget = 2.0

    def __init__(self, seed: int = 0):
        self.plan = self.default_plan(seed)

    @classmethod
    def default_plan(cls, seed: int) -> FaultPlan:
        raise NotImplementedError

    def run(self) -> ChaosResult:
        raise NotImplementedError

    def _result(self, recovery, overhead, invariants, details, log) -> ChaosResult:
        return ChaosResult(
            kind=self.kind,
            plan=self.plan,
            recovery_seconds=float(recovery),
            message_overhead=overhead,
            invariants=invariants,
            details=details,
            fingerprint=_fingerprint(self.plan, log),
        )


# -- 1. server crash / restart ------------------------------------------------

class CrashRestartScenario(ChaosScenario):
    """Fail-stop of the space-server front end, then a cold restart.

    A :class:`ResilientSpaceClient` keeps writing through the outage:
    every write is retried under an idempotency key, so the acknowledged
    set must come out of the space exactly once each.  The restarted
    front end has forgotten its lease-id table; renewing the anchor
    lease exercises graceful re-acquisition.
    """

    kind = FaultKind.CRASH_RESTART
    n_writes = 20

    @classmethod
    def default_plan(cls, seed: int) -> FaultPlan:
        return single_fault_plan(
            FaultKind.CRASH_RESTART, at=1.0, duration=0.5,
            scope="server", seed=seed,
        )

    def run(self) -> ChaosResult:
        clock = ManualClock()
        codec = XmlCodec()
        space = TupleSpace(clock=clock, name="chaos-space")

        incarnation = {"n": -1}

        def server_factory():
            # Each restart is a new incarnation: fresh lease-id epoch, so
            # stale pre-crash lease ids cannot alias post-restart grants.
            incarnation["n"] += 1
            return SpaceServer(
                space, codec, timers=NullTimers(),
                lease_epoch=incarnation["n"],
            )

        host = ChaosHost(
            None, self.plan, clock, scope="server",
            server_factory=server_factory,
        )
        client = ResilientSpaceClient(
            host.connect, codec, clock, client_id="chaos",
            backoff=BackoffPolicy(
                base=0.05, factor=2.0, max_delay=0.5,
                jitter=0.5, rng=self.plan.stream("backoff"),
            ),
            breaker=CircuitBreaker(clock, failure_threshold=3, reset_timeout=0.1),
            request_timeout=0.5,
            max_attempts=16,
        )
        spec = self.plan.of_kind(self.kind)[0]
        log: list = []

        anchor = client.write(LindaTuple("anchor", 0), lease=60.0)
        log.append(("anchor", round(clock.now(), 6)))

        first_after: Optional[float] = None
        for index in range(self.n_writes):
            clock.advance(0.1)
            ack = client.write(LindaTuple("item", index))
            now = clock.now()
            if first_after is None and now >= spec.until:
                first_after = now
            log.append(("write", index, round(now, 6), int(ack["dup"])))

        # Graceful lease re-acquisition against the restarted front end.
        renewed = client.renew_lease(anchor["lease_id"], 60.0)
        log.append(("renew", round(clock.now(), 6), round(renewed, 6)))

        # Drain: every acknowledged write must surface exactly once.
        drained: list[int] = []
        while True:
            item = client.take_if_exists(TupleTemplate("item", int))
            if item is None:
                break
            drained.append(item.fields[1])
        log.append(("drained", tuple(drained)))
        anchor_present = (
            client.read_if_exists(TupleTemplate("anchor", int)) is not None
        )

        recovery = (first_after - spec.until) if first_after is not None else 0.0
        invariants = {
            "no_lost_acked_writes": sorted(drained) == list(range(self.n_writes)),
            "no_duplicate_writes": len(drained) == len(set(drained)),
            "bounded_recovery": recovery <= self.recovery_budget,
            "lease_rearmed": client.reacquired >= 1
            and renewed > 0 and anchor_present,
            "fault_observed": client.retries > 0
            and host.refused_connects > 0 and host.front_end_restarts >= 1,
        }
        overhead = dict(host.message_overhead)
        overhead["client_retries"] = client.retries
        overhead["client_connects"] = client.connects
        details = {
            "drained": len(drained),
            "front_end_restarts": host.front_end_restarts,
            "reacquired": client.reacquired,
            "breaker_opens": client.breaker.opens,
            "breaker_rejections": client.breaker.rejections,
            "duplicate_acks": client.duplicate_acks,
        }
        return self._result(recovery, overhead, invariants, details, log)


# -- 2. message drop / delay / duplication ------------------------------------

class DropDelayDupScenario(ChaosScenario):
    """Lossy wire between client and server: drops, dups, delays.

    The fault window garbles requests and responses independently; the
    idempotent retry machinery must absorb all of it — worst-case single
    operation latency is the recovery metric for this class (there is no
    outage edge to recover past).
    """

    kind = FaultKind.DROP_DELAY_DUP
    recovery_budget = 3.0
    n_writes = 30

    @classmethod
    def default_plan(cls, seed: int) -> FaultPlan:
        return single_fault_plan(
            FaultKind.DROP_DELAY_DUP, at=0.5, duration=3.0,
            scope="server", seed=seed,
            req_drop_p=0.15, req_dup_p=0.15,
            resp_drop_p=0.15, resp_dup_p=0.1,
            resp_delay_p=0.1, resp_delay=0.05,
        )

    def run(self) -> ChaosResult:
        clock = ManualClock()
        codec = XmlCodec()
        space = TupleSpace(clock=clock, name="chaos-space")
        server = SpaceServer(space, codec, timers=NullTimers())
        host = ChaosHost(server, self.plan, clock, scope="server")
        client = ResilientSpaceClient(
            host.connect, codec, clock, client_id="chaos",
            backoff=BackoffPolicy(
                base=0.02, factor=2.0, max_delay=0.2,
                jitter=0.5, rng=self.plan.stream("backoff"),
            ),
            poll_interval=0.01,
            request_timeout=0.3,
            max_attempts=12,
        )
        log: list = []
        worst_latency = 0.0
        for index in range(self.n_writes):
            clock.advance(0.1)
            started = clock.now()
            ack = client.write(LindaTuple("item", index))
            latency = clock.now() - started
            worst_latency = max(worst_latency, latency)
            log.append(("write", index, round(latency, 6), int(ack["dup"])))

        # Step past the window before draining, so the at-most-once takes
        # run over a clean wire.
        horizon = self.plan.horizon
        if clock.now() < horizon:
            clock.set(horizon + 0.01)
        drained: list[int] = []
        while True:
            item = client.take_if_exists(TupleTemplate("item", int))
            if item is None:
                break
            drained.append(item.fields[1])
        log.append(("drained", tuple(drained)))

        invariants = {
            "no_lost_acked_writes": sorted(drained) == list(range(self.n_writes)),
            "no_duplicate_writes": len(drained) == len(set(drained)),
            "bounded_recovery": worst_latency <= self.recovery_budget,
            "fault_observed": (
                host.requests_dropped + host.requests_duplicated
                + host.responses_dropped + host.responses_duplicated
                + host.responses_delayed
            ) > 0,
        }
        overhead = dict(host.message_overhead)
        overhead["client_retries"] = client.retries
        overhead["client_connects"] = client.connects
        details = {
            "worst_op_latency": round(worst_latency, 6),
            "duplicate_acks": client.duplicate_acks,
            "drained": len(drained),
        }
        return self._result(worst_latency, overhead, invariants, details, log)


# -- 3. network partition ------------------------------------------------------

class _ReliableSender(NetAgent):
    """Seq-numbered sender with periodic retransmission of unacked data."""

    packet_kind = "chaos-data"

    def __init__(self, sim, n_messages, interval, retransmit_interval,
                 deadline, name="chaos-sender"):
        super().__init__(sim, name)
        self.n_messages = n_messages
        self.interval = interval
        self.retransmit_interval = retransmit_interval
        self.deadline = deadline
        self.acked: dict[int, float] = {}
        self.transmissions = 0
        self._last_sent: dict[int, float] = {}

    def start(self):
        return self.sim.spawn(self._run(), name=self.name)

    def _send_seq(self, seq: int) -> None:
        self.send_payload(64, payload=seq, seq=seq)
        self.transmissions += 1
        self._last_sent[seq] = self.sim.now

    def _run(self):
        next_seq = 0
        while len(self.acked) < self.n_messages and self.sim.now < self.deadline:
            if next_seq < self.n_messages:
                self._send_seq(next_seq)
                next_seq += 1
            for seq in range(next_seq):
                if seq in self.acked:
                    continue
                if self.sim.now - self._last_sent[seq] >= self.retransmit_interval:
                    self._send_seq(seq)
            yield self.sim.timeout(self.interval)

    def recv(self, packet):
        ack = packet.headers.get("ack")
        if ack is not None and ack not in self.acked:
            self.acked[ack] = self.sim.now


class _ReliableReceiver(NetAgent):
    """Dedups by sequence number; acks every copy (including duplicates)."""

    packet_kind = "chaos-ack"

    def __init__(self, sim, name="chaos-receiver"):
        super().__init__(sim, name)
        self.delivered: dict[int, float] = {}
        self.duplicates = 0

    def recv(self, packet):
        seq = packet.headers.get("seq")
        if seq is None or packet.headers.get("corrupted"):
            return
        if seq in self.delivered:
            self.duplicates += 1
        else:
            self.delivered[seq] = self.sim.now
        self.send_payload(8, ack=seq)


class PartitionScenario(ChaosScenario):
    """Both directions of a duplex link go dark for the fault window.

    A seq-numbered sender retransmits unacked messages; the receiver
    dedups.  Exactly-once application-level delivery and bounded catch-up
    after the partition heals are the invariants.
    """

    kind = FaultKind.PARTITION
    n_messages = 40

    @classmethod
    def default_plan(cls, seed: int) -> FaultPlan:
        return FaultPlan(seed=seed, faults=(
            fault(FaultKind.PARTITION, at=0.3, duration=0.4, scope="link.fwd"),
            fault(FaultKind.PARTITION, at=0.3, duration=0.4, scope="link.bwd"),
        ))

    def run(self) -> ChaosResult:
        sim = Simulator(seed=self.plan.seed)
        node_a = Node(sim, "A")
        node_b = Node(sim, "B")
        duplex = DuplexLink(sim, node_a, node_b, bandwidth_bps=1e6,
                            delay=0.001, queue_limit=64)
        sender = _ReliableSender(
            sim, self.n_messages, interval=0.02,
            retransmit_interval=0.25, deadline=20.0,
        )
        receiver = _ReliableReceiver(sim)
        node_a.attach(sender, port=1)
        node_b.attach(receiver, port=1)
        sender.connect(node_b, 1)
        receiver.connect(node_a, 1)
        arm_plan(sim, self.plan, {
            "link.fwd": duplex.forward,
            "link.bwd": duplex.backward,
        })
        sender.start()
        sim.run(until=20.0)

        until = self.plan.horizon
        last_delivery = max(receiver.delivered.values(), default=0.0)
        recovery = max(0.0, last_delivery - until)
        log = [
            ("delivered", seq, round(t, 9))
            for seq, t in sorted(receiver.delivered.items())
        ]
        log.append(("duplicates", receiver.duplicates))
        log.append(("transmissions", sender.transmissions))

        invariants = {
            "delivered_all": len(receiver.delivered) == self.n_messages,
            "exactly_once": len(set(receiver.delivered)) == self.n_messages
            and all(seq in sender.acked for seq in range(self.n_messages)),
            "bounded_recovery": recovery <= self.recovery_budget,
            "fault_observed": (duplex.forward.fault_drops
                               + duplex.backward.fault_drops) > 0,
            "fault_cleared": duplex.forward.fault is None
            and duplex.backward.fault is None,
        }
        overhead = {
            "transmissions": sender.transmissions,
            "retransmissions": sender.transmissions - self.n_messages,
            "duplicates_received": receiver.duplicates,
            "forward_fault_drops": duplex.forward.fault_drops,
            "backward_fault_drops": duplex.backward.fault_drops,
        }
        details = {
            "last_delivery": round(last_delivery, 6),
            "window_end": until,
        }
        return self._result(recovery, overhead, invariants, details, log)


# -- 4. noisy-line burst on the tpwire bus -------------------------------------

class NoisyBurstScenario(ChaosScenario):
    """Bit-error burst on the TpWIRE line during register traffic.

    The slave's register pointer auto-increments on every data frame, so
    the master's *blind* per-frame retry can silently shear a transfer
    when a reply is corrupted (the slave acted; the master resends).  The
    driver therefore performs whole-operation write-then-read-back
    verification and repeats the round until it checks out — the
    resilience pattern this class exists to exercise.
    """

    kind = FaultKind.NOISY_BURST
    n_rounds = 6
    payload_len = 4

    @classmethod
    def default_plan(cls, seed: int) -> FaultPlan:
        # Default 2400 bit/s timing: one exchange is ~17 ms, one verified
        # round ~0.2 s.  A 0.5 s window spans a couple of rounds.
        return single_fault_plan(
            FaultKind.NOISY_BURST, at=0.25, duration=0.5,
            scope="bus", seed=seed, p_tx=0.12, p_rx=0.12,
        )

    def run(self) -> ChaosResult:
        sim = Simulator(seed=self.plan.seed)
        timing = BusTiming()
        bus = TpwireBus(sim, timing, name="bus")
        slave = TpwireSlave(sim, node_id=1, timing=timing, memory_size=64)
        bus.attach_slave(slave)
        master = TpwireMaster(sim, bus, max_retries=8)
        arm_plan(sim, self.plan, {"bus": bus})
        spec = self.plan.of_kind(self.kind)[0]
        base = 0x10
        log: list = []
        state = {"completed": 0, "round_attempts": [], "integrity_retries": 0}

        def driver():
            for round_no in range(self.n_rounds):
                payload = bytes(
                    (round_no * 31 + i * 7 + 1) & 0xFF
                    for i in range(self.payload_len)
                )
                attempts = 0
                while attempts < 20:
                    attempts += 1
                    try:
                        yield master.run_op(
                            master.op_write_bytes(1, base, payload),
                            name=f"w{round_no}",
                        )
                        got = yield master.run_op(
                            master.op_read_bytes(1, base, len(payload)),
                            name=f"r{round_no}",
                        )
                    except (BusError, SlaveError):
                        continue
                    if bytes(got) == payload:
                        state["completed"] += 1
                        state["round_attempts"].append(attempts)
                        log.append((round_no, attempts, round(sim.now, 9)))
                        break
                    state["integrity_retries"] += 1

        sim.spawn(driver(), name="chaos-driver")
        sim.run(until=30.0)

        model = bus.error_model
        corrupted = (
            (model.corrupted_tx + model.corrupted_rx) if model is not None else 0
        )
        completions_after = [t for (_r, _a, t) in log if t >= spec.until]
        recovery = (
            (min(completions_after) - spec.until) if completions_after else 0.0
        )
        last_payload = bytes(
            ((self.n_rounds - 1) * 31 + i * 7 + 1) & 0xFF
            for i in range(self.payload_len)
        )
        invariants = {
            "all_rounds_completed": state["completed"] == self.n_rounds,
            "data_integrity": bytes(
                slave.registers.memory[base:base + self.payload_len]
            ) == last_payload,
            "bounded_recovery": recovery <= self.recovery_budget,
            "fault_observed": corrupted > 0 or master.retries > 0,
            "noise_cleared": model is None or (model.p_tx == 0.0
                                               and model.p_rx == 0.0),
        }
        overhead = {
            "bus_cycles": bus.cycles,
            "master_retries": master.retries,
            "crc_errors": bus.crc_errors,
            "timeouts": bus.timeouts,
            "corrupted_frames": corrupted,
            "integrity_retries": state["integrity_retries"],
        }
        details = {
            "round_attempts": list(state["round_attempts"]),
            "window": [spec.at, spec.until],
        }
        return self._result(recovery, overhead, invariants, details, log)


# -- 5. lease-expiry storm -----------------------------------------------------

class LeaseStormScenario(ChaosScenario):
    """Mass simultaneous lease expiry, with a protected minority.

    Hundreds of tuples are leased to die at the same instant; a handful
    are kept alive by a :class:`LeaseKeeper` heartbeat.  The storm must
    take out exactly the doomed set, leave the expiry heap drained of
    stale entries, and not wedge waiters: a consumer blocked across the
    storm must still be served by the first post-storm write.
    """

    kind = FaultKind.LEASE_STORM
    recovery_budget = 0.5
    storm_size = 200
    protected = 5

    @classmethod
    def default_plan(cls, seed: int) -> FaultPlan:
        return single_fault_plan(
            FaultKind.LEASE_STORM, at=1.0, duration=0.0,
            scope="space", seed=seed,
        )

    def run(self) -> ChaosResult:
        sim = Simulator(seed=self.plan.seed)
        clock = SimClock(sim)
        space = TupleSpace(clock=clock, name="storm-space")
        keeper = LeaseKeeper(sim, check_interval=0.1, renew_fraction=0.5)
        spec = self.plan.of_kind(self.kind)[0]
        log: list = []
        state: dict = {"served_at": None, "swept": 0, "post_len": None,
                       "heap_after": None, "storm_marked": False}

        def seed_space():
            # Everything in the doomed set expires at exactly spec.at.
            remaining = spec.at - sim.now
            for index in range(self.storm_size):
                space.write(LindaTuple("storm", index), lease=remaining)
            for index in range(self.protected):
                lease = space.write(LindaTuple("precious", index), lease=0.4)
                keeper.manage(lease)
            log.append(("seeded", round(sim.now, 9),
                        self.storm_size, self.protected))

        def consumer():
            item = yield space_take(
                sim, space, TupleTemplate("post-storm", int)
            )
            state["served_at"] = sim.now
            log.append(("served", round(sim.now, 9), item.fields[1]))

        def post_storm_write():
            space.write(LindaTuple("post-storm", 1))

        def probe():
            state["swept"] = space.sweep_expired()
            state["post_len"] = len(space)
            state["heap_after"] = len(space._expiry_heap)
            log.append(("probe", round(sim.now, 9), state["swept"],
                        state["post_len"], state["heap_after"]))

        sim.at(0.1, seed_space)
        sim.spawn(consumer(), name="storm-consumer")
        # The injector marks the window so the run's event order carries
        # the fault boundary explicitly (workload-shaped fault: the
        # "injection" happened when the doomed leases were granted).
        CallbackInjector(
            sim, spec,
            on_begin=lambda: state.__setitem__("storm_marked", True),
        ).arm()
        sim.at(spec.until + 0.05, post_storm_write)
        sim.at(spec.until + 0.2, probe)
        sim.run(until=2.0)
        keeper.stop()

        survivors = sum(
            1 for index in range(self.protected)
            if space.read_if_exists(TupleTemplate("precious", index)) is not None
        )
        served = state["served_at"]
        recovery = (served - spec.until) if served is not None else float("inf")
        invariants = {
            "storm_expired_all": state["swept"] >= 0
            and space.take_if_exists(TupleTemplate("storm", int)) is None
            and space.stats.expirations >= self.storm_size,
            "protected_survived": survivors == self.protected
            and keeper.renewals > 0,
            "expiry_heap_drained": state["heap_after"] is not None
            and state["heap_after"] <= self.protected + keeper.renewals + 1,
            "post_storm_waiter_served": served is not None,
            "bounded_recovery": recovery <= self.recovery_budget,
            "fault_observed": state["storm_marked"],
        }
        overhead = {
            "expirations": space.stats.expirations,
            "renewals": keeper.renewals,
            "swept_by_probe": state["swept"],
            "heap_after": state["heap_after"] or 0,
        }
        details = {
            "survivors": survivors,
            "space_len_after": state["post_len"],
        }
        return self._result(recovery, overhead, invariants, details, log)


# -- 6. slow / stalled consumer ------------------------------------------------

class SlowConsumerScenario(ChaosScenario):
    """The single FFT consumer stalls for the fault window.

    Producers keep posting open-loop; work piles up in the space.  After
    the window the consumer's service time is restored and the backlog
    must drain: every job completes, and the last completion lands within
    the recovery budget of the window's end.
    """

    kind = FaultKind.SLOW_CONSUMER
    recovery_budget = 3.0
    n_jobs = 24
    interval = 0.1
    service_time = 0.05

    @classmethod
    def default_plan(cls, seed: int) -> FaultPlan:
        return single_fault_plan(
            FaultKind.SLOW_CONSUMER, at=0.5, duration=1.0,
            scope="consumer", seed=seed, stall=1.0,
        )

    def run(self) -> ChaosResult:
        sim = Simulator(seed=self.plan.seed)
        clock = SimClock(sim)
        space = TupleSpace(clock=clock, name="offload-space")
        consumer = ConsumerAgent(sim, space, 0, service_time=self.service_time)
        consumer.start()
        spec = self.plan.of_kind(self.kind)[0]
        stall = float(spec.param("stall", spec.duration))
        saved: dict = {}

        CallbackInjector(
            sim, spec,
            on_begin=lambda: (
                saved.__setitem__("service_time", consumer.service_time),
                setattr(consumer, "service_time", stall),
            ),
            on_end=lambda: setattr(
                consumer, "service_time", saved["service_time"]
            ),
        ).arm()

        posted: dict[int, float] = {}
        completed: dict[int, float] = {}
        log: list = []
        rng = sim.stream("chaos.jobs")

        def producer():
            for job_id in range(self.n_jobs):
                samples = [rng.uniform(-1.0, 1.0) for _ in range(8)]
                space.write(fft_request(job_id, samples))
                posted[job_id] = sim.now
                yield sim.timeout(self.interval)

        def collector():
            for job_id in range(self.n_jobs):
                yield space_take(sim, space, fft_result_template(job_id))
                completed[job_id] = sim.now
                log.append(("done", job_id, round(sim.now, 9)))

        sim.spawn(producer(), name="chaos-producer")
        sim.spawn(collector(), name="chaos-collector")
        sim.run(until=15.0)

        latencies = {
            job_id: completed[job_id] - posted[job_id]
            for job_id in completed
        }
        worst = max(latencies.values(), default=0.0)
        last_completion = max(completed.values(), default=0.0)
        recovery = max(0.0, last_completion - spec.until)
        backlog_empty = space.take_if_exists(fft_request_template()) is None
        invariants = {
            "all_jobs_completed": len(completed) == self.n_jobs,
            "backlog_drained": backlog_empty,
            "bounded_recovery": recovery <= self.recovery_budget,
            "fault_observed": worst > 3 * self.service_time,
            "stall_cleared": abs(consumer.service_time - self.service_time)
            < 1e-12,
        }
        overhead = {
            "jobs_served": consumer.jobs_served,
            "worst_latency": round(worst, 6),
        }
        details = {
            "last_completion": round(last_completion, 6),
            "window_end": spec.until,
        }
        return self._result(recovery, overhead, invariants, details, log)


#: Fault class -> scenario type; the chaos tests and bench iterate this.
SCENARIOS: dict[FaultKind, type] = {
    FaultKind.CRASH_RESTART: CrashRestartScenario,
    FaultKind.DROP_DELAY_DUP: DropDelayDupScenario,
    FaultKind.PARTITION: PartitionScenario,
    FaultKind.NOISY_BURST: NoisyBurstScenario,
    FaultKind.LEASE_STORM: LeaseStormScenario,
    FaultKind.SLOW_CONSUMER: SlowConsumerScenario,
}

