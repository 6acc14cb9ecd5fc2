"""The TCP/Ethernet alternative of Sec. 4.3, made measurable.

Runs the identical tuplespace workload of the Figure 7 case study —
same client, same server, same XML entries — over a switched Ethernet
star instead of the TpWIRE daisy chain, so the paper's qualitative
trade-off ("several advantages, mainly because of its natural software
abstraction ... [but] the cost of such a connection may be too high")
becomes a quantitative one: seconds saved vs. active devices required.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.server import SimTimers, SpaceServer
from repro.core.sim_client import SimSpaceClient
from repro.core.space import TupleSpace
from repro.core.clock import SimClock
from repro.cosim.scenarios import (
    CASE_STUDY_CLIENT_TIMING,
    CASE_STUDY_LEASE_SECONDS,
    CASE_STUDY_SERVER_TIMING,
    CASE_STUDY_TAKE_TIMEOUT,
    MachineParameters,
    default_entry,
    make_case_study_codec,
)
from repro.cosim.errors import CaseStudyIncompleteError
from repro.cosim.server_host import SimServerHost
from repro.des import Simulator
from repro.hw.shared_memory import SharedMemoryChannel
from repro.net.stream import build_switched_star

#: Every link of the star: 10BASE-T with a 50 µs propagation delay.
ETHERNET_BANDWIDTH_BPS = 10_000_000.0
ETHERNET_LINK_DELAY = 50e-6


@dataclass
class EthernetResult:
    elapsed_seconds: float
    completed: bool
    switch_packets: int
    wire_bytes: int
    active_devices: int  #: infrastructure the TpWIRE solution avoids


class EthernetCaseStudy:
    """Write+take over the switched network (same endpoints as Fig. 7)."""

    def __init__(self):
        self.sim = Simulator(seed=1)
        self.switch, self.agents = build_switched_star(
            self.sim, ["client", "server"],
            bandwidth_bps=ETHERNET_BANDWIDTH_BPS, delay=ETHERNET_LINK_DELAY,
        )
        self.codec = make_case_study_codec()
        self.space = TupleSpace(clock=SimClock(self.sim), name="javaspace")
        self.server = SpaceServer(
            self.space, self.codec, timers=SimTimers(self.sim)
        )

        # Server side: the same host as behind the SC2 bridge, with the
        # server's NIC as its bridge.
        self.server_host = SimServerHost(
            self.sim, self.server, _NicBridge(self), CASE_STUDY_SERVER_TIMING,
            name="eth-server",
        )
        self.agents["server"].on_data = self.server_host.bridge.deliver

        # Client side: the same SimSpaceClient, fed by channel adapters.
        self._client_tx = SharedMemoryChannel(self.sim, name="eth.client.tx")
        self._client_rx = SharedMemoryChannel(self.sim, name="eth.client.rx")
        self.agents["client"].on_data = (
            lambda src, data: self._client_rx.write(data)
        )
        self.sim.spawn(self._client_tx_loop(), name="eth-client-tx")
        self.client = SimSpaceClient(
            self.sim, self._client_tx, self._client_rx, self.codec,
            timing=CASE_STUDY_CLIENT_TIMING, name="eth-client",
        )
        self.wire_bytes = 0
        self._result: Optional[EthernetResult] = None

    # -- plumbing -----------------------------------------------------------

    def _client_tx_loop(self):
        while True:
            yield self._client_tx.wait_readable()
            data = self._client_tx.read()
            if data:
                self.wire_bytes += self.agents["client"].send_stream(
                    "server", data
                )

    # -- the measured operation ------------------------------------------------

    def _client_program(self):
        start = self.sim.now
        entry = default_entry()
        yield from self.client.write(
            entry, lease=CASE_STUDY_LEASE_SECONDS, created_at=start
        )
        template = MachineParameters(
            machine_id=entry.machine_id,
            recipe=entry.recipe,
            firmware=entry.firmware,
            tool_slot=entry.tool_slot,
        )
        taken = yield from self.client.take(
            template, timeout=CASE_STUDY_TAKE_TIMEOUT
        )
        self._result = EthernetResult(
            elapsed_seconds=self.sim.now - start,
            completed=taken is not None,
            switch_packets=self.switch.forwarded_packets,
            wire_bytes=self.wire_bytes,
            active_devices=1,  # the switch TpWIRE does without
        )
        self.sim.stop()

    def run(self, max_sim_time: float = 600.0) -> EthernetResult:
        self.sim.spawn(self._client_program(), name="eth-client-program")
        self.sim.run(until=max_sim_time)
        if self._result is None:
            raise CaseStudyIncompleteError("Ethernet case study did not finish")
        return self._result


class _NicBridge:
    """The server's network interface, shaped like a ``ServerBridge``."""

    def __init__(self, study: EthernetCaseStudy):
        self.deliver = None
        self._study = study

    def send_to(self, peer: str, data: bytes) -> None:
        study = self._study
        study.wire_bytes += study.agents["server"].send_stream(peer, data)
