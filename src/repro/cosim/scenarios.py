"""The paper's experiment scenarios (Figures 6 and 7, Tables 3 and 4).

* :class:`ValidationScenario` — Figure 6: a CBR generator on Slave1 sends
  byte packets to a receiver on Slave2; elapsed time and frame counts are
  the rows of Table 3 (run it over both bus fidelities and compare).
* :class:`CaseStudyScenario` — Figure 7: a C++ client on Slave1 performs
  a write-entry followed by a take against the JavaSpaces server on
  Slave3 while a CBR source on Slave2 loads the bus towards a receiver on
  Slave4; completion time vs. CBR rate and wire count is Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.entry import Entry
from repro.core.server import SimTimers, SpaceServer
from repro.core.sim_client import MarshallingCost, SimSpaceClient
from repro.core.space import TupleSpace
from repro.core.clock import SimClock
from repro.core.xmlcodec import XmlCodec
from repro.cosim.environment import BusSystem, build_bus_system
from repro.cosim.errors import CaseStudyIncompleteError
from repro.cosim.server_host import SimServerHost
from repro.des import HeapScheduler, Simulator
from repro.hw.bridge import ClientBridge, ServerBridge
from repro.net.traffic import CBRSource
from repro.net.tpwire_agent import TpwireAgent, TpwireSink
from repro.tpwire.timing import WireMode
from repro.tpwire.transport import PollStrategy


# -- Figure 6: validation topology ------------------------------------------


@dataclass
class ValidationResult:
    """One Table 3 row (for one bus model)."""

    elapsed_seconds: float
    bytes_delivered: int
    packets_delivered: int
    tx_frames: int
    rx_frames: int

    @property
    def total_frames(self) -> int:
        return self.tx_frames + self.rx_frames


class ValidationScenario:
    """Figure 6: Master, CBR on Slave1 -> Receiver on Slave2."""

    CBR_NODE = 1
    RECEIVER_NODE = 2

    def __init__(
        self,
        bit_rate: float = 2400.0,
        bit_level: bool = False,
        packet_size: int = 1,
        cbr_rate: float = 8.0,
        seed: int = 1,
        obs=None,
    ):
        self.obs = obs
        self.sim = Simulator(seed=seed, obs=obs)
        self.system: BusSystem = build_bus_system(
            self.sim,
            [self.CBR_NODE, self.RECEIVER_NODE],
            bit_rate=bit_rate,
            bit_level=bit_level,
            obs=obs,
        )
        self.agent = TpwireAgent(
            self.sim, self.system.endpoint(self.CBR_NODE), name="cbr-agent"
        )
        self.sink = TpwireSink(
            self.sim, self.system.endpoint(self.RECEIVER_NODE), name="receiver"
        )
        self.agent.connect(self.sink)
        self.cbr = CBRSource(
            self.sim, self.agent, rate_bytes_per_s=cbr_rate,
            packet_size=packet_size,
        )
        if obs is not None:
            obs.metrics.attach(
                "scenario.packets_delivered",
                lambda: self.sink.received_packets,
            )
            obs.metrics.attach(
                "scenario.bytes_delivered", lambda: self.sink.received_bytes
            )

    def run(self, n_packets: int, max_sim_time: float = 3600.0) -> ValidationResult:
        """Generate ``n_packets`` and run until all are delivered."""
        if n_packets < 1:
            raise ValueError("need at least one packet")
        self.system.start()
        self.cbr.start()
        start = self.sim.now

        def monitor():
            while self.sink.received_packets < n_packets:
                yield self.sim.timeout(0.05)
            self.cbr.stop()
            self.system.stop()
            self.sim.stop()

        self.sim.spawn(monitor())
        self.sim.run(until=start + max_sim_time)
        elapsed = (
            self.sink.last_rx_time - start
            if self.sink.last_rx_time is not None
            else self.sim.now - start
        )
        result = ValidationResult(
            elapsed_seconds=elapsed,
            bytes_delivered=self.sink.received_bytes,
            packets_delivered=self.sink.received_packets,
            tx_frames=self.system.bus.tx_frames,
            rx_frames=self.system.bus.rx_frames,
        )
        if self.obs is not None:
            self.obs.tracer.event(
                "scenario", "done",
                packets=result.packets_delivered, frames=result.total_frames,
            )
        return result


# -- Figure 7: case study ---------------------------------------------------------


class MachineParameters(Entry):
    """A representative factory-automation parameter block.

    Stands in for the entries the paper's client exchanges: a realistic
    machine configuration whose XML encoding is a few hundred bytes —
    the size regime that makes a write+take take minutes over TpWIRE.
    """

    def __init__(
        self,
        machine_id=None,
        recipe=None,
        axis_positions=None,
        axis_speeds=None,
        temperature=None,
        tool_slot=None,
        firmware=None,
        checksum=None,
    ):
        self.machine_id = machine_id
        self.recipe = recipe
        self.axis_positions = axis_positions
        self.axis_speeds = axis_speeds
        self.temperature = temperature
        self.tool_slot = tool_slot
        self.firmware = firmware
        self.checksum = checksum


def default_entry() -> MachineParameters:
    """The entry written/taken in the Table 4 experiment."""
    return MachineParameters(
        machine_id="cell-7/axis-drive-3",
        recipe="anodize-std-2003",
        axis_positions=[12.5, -3.25, 100.0, 0.0, 45.125, 7.75],
        axis_speeds=[250.0, 250.0, 400.0, 100.0, 180.0, 90.0],
        temperature=36.8,
        tool_slot=14,
        firmware="tpicu-scm20-1.4.2",
        checksum=0x5A3C,
    )


def make_case_study_codec() -> XmlCodec:
    codec = XmlCodec()
    codec.register(MachineParameters)
    return codec


#: Board-side marshalling costs: the client runs under an ISS; it
#: builds requests and parses replies.
CASE_STUDY_CLIENT_TIMING = MarshallingCost(
    request_seconds_per_byte=0.004,
    reply_seconds_per_byte=0.002,
    request_overhead=0.3,
)
#: Host-side costs: socket wrapper + RMI + XML parse in the JVM; it
#: parses requests and builds replies.
CASE_STUDY_SERVER_TIMING = MarshallingCost(
    request_seconds_per_byte=0.002,
    reply_seconds_per_byte=0.001,
    request_overhead=0.1,
)
#: The entry's lease: long enough for the 1-wire baseline's write+take.
CASE_STUDY_LEASE_SECONDS = 160.0
#: How long the board's take waits for a match before giving up.
CASE_STUDY_TAKE_TIMEOUT = 10.0


@dataclass
class CaseStudyConfig:
    """Knobs of the Figure 7 / Table 4 experiment."""

    wires: int = 1
    mode: Optional[WireMode] = None
    #: Calibrated so the 1-wire baseline lands in the paper's regime
    #: (write+take ~ 2.5 minutes, Out-of-Time between 0.3 and 1 B/s CBR).
    bit_rate: float = 2100.0
    cbr_rate_bytes_per_s: float = 0.0
    lease_seconds: float = CASE_STUDY_LEASE_SECONDS
    seed: int = 1
    #: firmware what-ifs: DMA burst delivery and INT-driven discovery
    use_dma: bool = False
    poll_strategy: PollStrategy = PollStrategy.ROUND_ROBIN
    #: per-frame RX corruption probability (0 = clean line); the master's
    #: retries absorb transient errors at the cost of time
    rx_error_probability: float = 0.0
    #: run the whole case study over the bit-level PHY instead of the
    #: packet-level model (slow; the full-stack validation experiment)
    bit_level: bool = False
    #: pending-event queue handed to :class:`Simulator`; ``None`` gives a
    #: fresh :class:`~repro.des.HeapScheduler` (pass an instrumented
    #: subclass to count or trace what the run loop pops)
    scheduler: Optional[HeapScheduler] = None


@dataclass
class CaseStudyResult:
    """One Table 4 cell."""

    elapsed_seconds: float
    completed: bool              #: the take returned the entry
    out_of_time: bool            #: lease expired before the take
    write_ack_seconds: float     #: time until the write was acknowledged
    cbr_bytes_delivered: int
    bus_tx_frames: int
    bus_utilization: float

    def cell(self) -> str:
        """Table-4-style cell text."""
        if self.out_of_time:
            return "Out of Time"
        return f"{self.elapsed_seconds:.0f}s"


class CaseStudyScenario:
    """Figure 7: client@S1, CBR@S2, space server@S3, receiver@S4."""

    CLIENT_NODE = 1
    CBR_NODE = 2
    SERVER_NODE = 3
    RECEIVER_NODE = 4

    def __init__(self, config: Optional[CaseStudyConfig] = None, obs=None):
        self.config = config if config is not None else CaseStudyConfig()
        cfg = self.config
        self.obs = obs
        self.sim = Simulator(
            scheduler=cfg.scheduler,
            seed=cfg.seed,
            obs=obs,
        )
        error_model = None
        if cfg.rx_error_probability > 0:
            from repro.tpwire.bus import BitErrorModel
            error_model = BitErrorModel(
                self.sim, p_rx=cfg.rx_error_probability
            )
        self.system = build_bus_system(
            self.sim,
            [self.CLIENT_NODE, self.CBR_NODE, self.SERVER_NODE, self.RECEIVER_NODE],
            wires=cfg.wires,
            mode=cfg.mode,
            bit_rate=cfg.bit_rate,
            use_dma=cfg.use_dma,
            poll_strategy=cfg.poll_strategy,
            error_model=error_model,
            bit_level=cfg.bit_level,
            obs=obs,
        )
        self.codec = make_case_study_codec()

        # Server side (SC2): tuplespace on simulated time + bridge + host.
        self.space = TupleSpace(
            clock=SimClock(self.sim), name="javaspace", obs=obs
        )
        self.server = SpaceServer(
            self.space, self.codec, timers=SimTimers(self.sim), obs=obs
        )
        self.server_bridge = ServerBridge(
            self.sim, self.system.endpoint(self.SERVER_NODE)
        )
        self.server_host = SimServerHost(
            self.sim, self.server, self.server_bridge,
            CASE_STUDY_SERVER_TIMING,
        )

        # Client side (SC1): bridge + the board's space client.
        self.client_bridge = ClientBridge(
            self.sim, self.system.endpoint(self.CLIENT_NODE), self.SERVER_NODE
        )
        self.client = SimSpaceClient(
            self.sim,
            self.client_bridge.to_bus,
            self.client_bridge.from_bus,
            self.codec,
            timing=CASE_STUDY_CLIENT_TIMING,
            name="board-client",
        )

        # Cross traffic: CBR on Slave2 towards the receiver on Slave4.
        self.cbr_agent = TpwireAgent(
            self.sim, self.system.endpoint(self.CBR_NODE), name="cbr-agent"
        )
        self.cbr_sink = TpwireSink(
            self.sim, self.system.endpoint(self.RECEIVER_NODE), name="receiver"
        )
        self.cbr_agent.connect(self.cbr_sink)
        self.cbr = CBRSource(
            self.sim, self.cbr_agent,
            rate_bytes_per_s=cfg.cbr_rate_bytes_per_s,
        )

        self._result: Optional[CaseStudyResult] = None

    # -- the client program (write entry, then take it back) ---------------------

    def _client_program(self):
        cfg = self.config
        obs = self.obs
        start = self.sim.now
        entry = default_entry()
        # The entry's lifetime counts from its creation on the board
        # (created_at): the take succeeds "only if the entry lifetime is
        # not out-of-date" relative to that moment.
        write_span = obs.tracer.begin("client", "write") if obs is not None else None
        yield from self.client.write(
            entry, lease=cfg.lease_seconds, created_at=start
        )
        write_ack_at = self.sim.now
        if obs is not None:
            write_span.end()
            obs.metrics.histogram("client.write_seconds").observe(
                write_ack_at - start
            )
        # The client addresses the block it wrote: the template pins the
        # identifying fields (a realistic, several-hundred-byte template).
        template = MachineParameters(
            machine_id=entry.machine_id,
            recipe=entry.recipe,
            firmware=entry.firmware,
            tool_slot=entry.tool_slot,
        )
        take_span = obs.tracer.begin("client", "take") if obs is not None else None
        take_started = self.sim.now
        taken = yield from self.client.take(
            template, timeout=CASE_STUDY_TAKE_TIMEOUT
        )
        elapsed = self.sim.now - start
        if obs is not None:
            take_span.end(completed=taken is not None)
            obs.metrics.histogram("client.take_seconds").observe(
                self.sim.now - take_started
            )
        # The bit-level PHY has no line-utilization monitor.
        utilization_monitor = getattr(self.system.bus, "utilization", None)
        self._result = CaseStudyResult(
            elapsed_seconds=elapsed,
            completed=taken is not None,
            out_of_time=taken is None,
            write_ack_seconds=write_ack_at - start,
            cbr_bytes_delivered=self.cbr_sink.received_bytes,
            bus_tx_frames=self.system.bus.tx_frames,
            bus_utilization=(
                utilization_monitor.time_average()
                if utilization_monitor is not None
                else float("nan")
            ),
        )
        self.cbr.stop()
        self.system.stop()
        self.sim.stop()

    def run(self, max_sim_time: float = 1200.0) -> CaseStudyResult:
        self.system.start()
        self.cbr.start()
        self.sim.spawn(self._client_program(), name="client-program")
        self.sim.run(until=max_sim_time)
        if self._result is None:
            raise CaseStudyIncompleteError(
                f"case study did not finish within {max_sim_time}s of "
                "simulated time"
            )
        return self._result
