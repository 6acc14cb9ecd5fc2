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

from repro import lazy_exports

_EXPORTS = {
    "repro.core.errors": (
        "ConnectionClosedError",
        "SpaceError",
        "NoMatchError",
        "LeaseDeniedError",
        "LeaseExpiredError",
        "ProtocolError",
    ),
    "repro.core.clock": ("Clock", "SystemClock", "SimClock", "ManualClock"),
    "repro.core.tuples": ("LindaTuple", "TupleTemplate", "ANY"),
    "repro.core.entry": ("Entry",),
    "repro.core.lease": ("Lease", "LeaseManager", "FOREVER"),
    "repro.core.events": ("EventRegistration", "RemoteEvent"),
    "repro.core.space": ("TupleSpace", "SpaceStats"),
    "repro.core.discovery": ("ServiceRegistry",),
    "repro.core.server": ("SpaceServer",),
    "repro.core.persistence": ("SpaceJournal", "recover_space"),
    "repro.core.xmlcodec": ("XmlCodec",),
    "repro.core.protocol": ("MessageType", "Message", "encode_message", "StreamParser"),
    "repro.core.client": ("SpaceClient",),
    "repro.core.sim_client": ("SimSpaceClient", "MarshallingCost"),
    "repro.core.agents": (
        "SpaceAgent",
        "ControlAgent",
        "ActuatorAgent",
        "ProducerAgent",
        "ConsumerAgent",
    ),
}

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

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
