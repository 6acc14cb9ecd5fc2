"""Bus-system assembly: bus + master + slaves + mailboxes + poller.

One call builds a complete TpWIRE deployment in either fidelity:

* ``bit_level=False`` — the packet-level NS-2-analog model
  (:class:`repro.tpwire.bus.TpwireBus`), used for the Figure 7 case study;
* ``bit_level=True`` — the delta-cycle PHY
  (:class:`repro.hw.tpwire_phy.BitLevelTpwireBus`), the hardware reference
  of the Table 3 validation.

Everything above the bus (master, mailboxes, transport, poller, agents,
bridges) is identical between the two, which is what makes the validation
comparison meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.des import Simulator
from repro.hw import HwKernel
from repro.hw.tpwire_phy import BitLevelTpwireBus, PhyTiming
from repro.tpwire import (
    BitErrorModel,
    BusTiming,
    MailboxDevice,
    MasterPoller,
    PollStrategy,
    TpwireMaster,
    TpwireSlave,
    WireMode,
)
from repro.tpwire.nwire import timing_for
from repro.tpwire.transport import TransportEndpoint, TransportFabric

#: The master drains up to this many link messages from each mailbox it
#: visits: a store-and-forward relay, not one message per poll.
RELAY_MESSAGES_PER_VISIT = 64


@dataclass
class BusSystem:
    """A fully wired TpWIRE deployment."""

    sim: Simulator
    timing: BusTiming
    bus: object                     #: TpwireBus or BitLevelTpwireBus
    master: TpwireMaster
    fabric: TransportFabric
    slaves: dict[int, TpwireSlave] = field(default_factory=dict)
    mailboxes: dict[int, MailboxDevice] = field(default_factory=dict)
    endpoints: dict[int, TransportEndpoint] = field(default_factory=dict)
    poller: Optional[MasterPoller] = None
    kernel: Optional[HwKernel] = None

    def endpoint(self, node_id: int) -> TransportEndpoint:
        return self.endpoints[node_id]

    def start(self) -> None:
        if self.poller is not None:
            self.poller.start()

    def stop(self) -> None:
        if self.poller is not None:
            self.poller.stop()


def build_bus_system(
    sim: Simulator,
    slave_ids: list[int],
    wires: int = 1,
    bit_rate: float = 2400.0,
    mode: Optional[WireMode] = None,
    bit_level: bool = False,
    error_model: Optional[BitErrorModel] = None,
    use_dma: bool = False,
    poll_strategy: PollStrategy = PollStrategy.ROUND_ROBIN,
    obs=None,
) -> BusSystem:
    """Build a bus, its slaves with mailbox transports, and the poller.

    ``obs`` (a :class:`repro.obs.Observability`) threads through to the
    packet-level bus, the master and every slave; the bit-level PHY has
    no packet hooks, so only master/slave instrumentation applies there.
    """
    if not slave_ids:
        raise ValueError("need at least one slave id")
    timing = timing_for(wires, bit_rate=bit_rate, mode=mode)
    kernel = None
    if bit_level:
        if error_model is not None:
            raise ValueError(
                "frame error injection is a packet-level model feature"
            )
        if wires != 1 or mode not in (None, WireMode.SERIAL):
            # The PHY carries only 1-wire serial frames; building it for
            # another line group would silently simulate the 1-wire bus.
            raise ValueError(
                f"the bit-level PHY models the 1-wire serial bus only "
                f"(asked for wires={wires}, mode={mode})"
            )
        kernel = HwKernel(sim)
        bus = BitLevelTpwireBus(sim, kernel, PhyTiming(bit_rate=bit_rate))
    else:
        from repro.tpwire.bus import TpwireBus
        bus = TpwireBus(sim, timing, error_model, obs=obs)

    fabric = TransportFabric()
    system = BusSystem(
        sim=sim,
        timing=timing,
        bus=bus,
        master=None,  # set below
        fabric=fabric,
        kernel=kernel,
    )
    for node_id in slave_ids:
        slave = TpwireSlave(sim, node_id, timing, obs=obs)
        mailbox = MailboxDevice()
        slave.attach_device(mailbox)
        bus.attach_slave(slave)
        endpoint = TransportEndpoint(sim, fabric, mailbox, node_id)
        system.slaves[node_id] = slave
        system.mailboxes[node_id] = mailbox
        system.endpoints[node_id] = endpoint
    if bit_level:
        bus.finalize()
    master = TpwireMaster(sim, bus, obs=obs)
    system.master = master
    system.poller = MasterPoller(
        sim, master, fabric, list(slave_ids),
        max_messages_per_visit=RELAY_MESSAGES_PER_VISIT,
        use_dma=use_dma,
        strategy=poll_strategy,
    )
    return system
