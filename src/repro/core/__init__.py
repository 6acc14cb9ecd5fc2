"""Tuplespace middleware (the paper's JavaSpaces-like application layer).

The middleware follows the Linda / JavaSpaces model the paper builds on:

* typed tuples and entries, associatively addressed by template matching
  (:mod:`repro.core.tuples`, :mod:`repro.core.entry`);
* a tuplespace with blocking and non-blocking ``write`` / ``read`` /
  ``take`` primitives, leases, and subscribe/notify
  (:mod:`repro.core.space`, :mod:`repro.core.lease`,
  :mod:`repro.core.events`);
* a service-discovery subsystem layered on the space
  (:mod:`repro.core.discovery`);
* the ``SpaceServer``, the XML-Tuples codec and the socket wire protocol
  that lets non-Java (C++) clients participate (:mod:`repro.core.server`,
  :mod:`repro.core.xmlcodec`, :mod:`repro.core.protocol`);
* transports: real TCP sockets, a hermetic in-process loopback, and
  (through :mod:`repro.cosim`) the TpWIRE bus
  (:mod:`repro.core.transports`);
* agents for the paper's factory-automation patterns — redundant
  actuators with failover, producer/consumer offload
  (:mod:`repro.core.agents`).
"""

from repro.core.errors import (
    ConnectionClosedError,
    SpaceError,
    NoMatchError,
    LeaseDeniedError,
    LeaseExpiredError,
    ProtocolError,
)
from repro.core.clock import Clock, SystemClock, SimClock, ManualClock
from repro.core.tuples import LindaTuple, TupleTemplate, ANY
from repro.core.entry import Entry
from repro.core.lease import Lease, LeaseManager, FOREVER
from repro.core.events import EventRegistration, RemoteEvent
from repro.core.space import TupleSpace, SpaceStats
from repro.core.discovery import ServiceRegistry
from repro.core.server import SpaceServer
from repro.core.persistence import SpaceJournal, recover_space
from repro.core.xmlcodec import XmlCodec
from repro.core.protocol import (
    MessageType,
    Message,
    encode_message,
    StreamParser,
)
from repro.core.client import SpaceClient
from repro.core.sim_client import SimSpaceClient, MarshallingCost
from repro.core.agents import (
    SpaceAgent,
    ControlAgent,
    ActuatorAgent,
    ProducerAgent,
    ConsumerAgent,
)

__all__ = [
    "ConnectionClosedError",
    "SpaceError",
    "NoMatchError",
    "LeaseDeniedError",
    "LeaseExpiredError",
    "ProtocolError",
    "Clock",
    "SystemClock",
    "SimClock",
    "ManualClock",
    "LindaTuple",
    "TupleTemplate",
    "ANY",
    "Entry",
    "Lease",
    "LeaseManager",
    "FOREVER",
    "EventRegistration",
    "RemoteEvent",
    "TupleSpace",
    "SpaceStats",
    "ServiceRegistry",
    "SpaceServer",
    "SpaceJournal",
    "recover_space",
    "XmlCodec",
    "MessageType",
    "Message",
    "encode_message",
    "StreamParser",
    "SpaceClient",
    "SimSpaceClient",
    "MarshallingCost",
    "SpaceAgent",
    "ControlAgent",
    "ActuatorAgent",
    "ProducerAgent",
    "ConsumerAgent",
]
