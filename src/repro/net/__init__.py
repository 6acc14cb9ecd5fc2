"""Network layer on top of the event kernel (NS-2 node/link/agent analog).

The paper models TpWIRE inside NS-2 by writing a new agent class and
connecting nodes with links carrying the TpWIRE bandwidth and real-time
parameters.  This package provides those NS-2 building blocks:

* :class:`~repro.net.packet.Packet` — typed packets with headers,
* :class:`~repro.net.node.Node` — addressable packet endpoints,
* :class:`~repro.net.link.Link` — bandwidth/delay links with drop-tail
  queues (plus a duplex convenience wrapper),
* :class:`~repro.net.agent.NetAgent` — protocol agents attached to nodes,
* traffic generators (:class:`~repro.net.traffic.CBRSource` — the paper's
  load generator — plus Poisson arrivals for the M/D/1 queueing check),
* :class:`~repro.net.sink.SinkAgent` — receivers with latency/throughput
  statistics,
* the TpWIRE agent and sink (:mod:`repro.net.tpwire_agent`) that carry
  these flows over the bus model.
"""

from repro.net.errors import NetError, AgentConfigError, NoRouteError
from repro.net.packet import Packet
from repro.net.node import Node
from repro.net.link import DuplexLink
from repro.net.agent import NetAgent, LoopbackAgent
from repro.net.traffic import CBRSource, PoissonSource
from repro.net.sink import SinkAgent
from repro.net.tpwire_agent import TpwireAgent, TpwireSink

__all__ = [
    "NetError",
    "AgentConfigError",
    "NoRouteError",
    "Packet",
    "Node",
    "DuplexLink",
    "NetAgent",
    "LoopbackAgent",
    "CBRSource",
    "PoissonSource",
    "SinkAgent",
    "TpwireAgent",
    "TpwireSink",
]
