"""Service discovery over the tuplespace.

Sec. 1 lists the middleware's ingredients: "a discovery mechanism for
communicating entities, a common interface schema language and repository,
and an asynchronous communication using a common data scheme (tuples)".
Sec. 2.1: "Devices exporting a service do register themselves into the
service discovery subsystem.  On joining the tuplespace, devices that need
to use a service query the discovery subsystem to locate the service."

The registry is itself built *on* the space: registrations are leased
:class:`ServiceEntry` entries, so discovery inherits the space's fault
behaviour — a crashed device stops renewing and its advertisement
expires, exactly the dynamic-extension story of Sec. 2.1.
"""

from __future__ import annotations

from typing import Optional

from repro.core.entry import Entry
from repro.core.errors import SpaceError
from repro.core.lease import Lease
from repro.core.space import TupleSpace


class ServiceEntry(Entry):
    """Advertisement of one exported service."""

    def __init__(
        self,
        name: Optional[str] = None,
        kind: Optional[str] = None,
        node: Optional[str] = None,
        schema: Optional[str] = None,
        attributes: Optional[dict] = None,
    ):
        self.name = name
        self.kind = kind
        self.node = node
        #: name of the interface schema this service implements
        self.schema = schema
        self.attributes = attributes


class ServiceRegistry:
    """Register/lookup services; keep the shared interface schemas."""

    def __init__(self, space: TupleSpace):
        self.space = space
        #: the "common interface schema language and repository"
        self._schemas: dict[str, str] = {}

    # -- schema repository ---------------------------------------------------

    def register_schema(self, name: str, definition: str) -> None:
        """Publish an interface schema under ``name``."""
        if not name:
            raise SpaceError("schema name must be non-empty")
        self._schemas[name] = definition

    def get_schema(self, name: str) -> str:
        try:
            return self._schemas[name]
        except KeyError:
            raise SpaceError(f"no schema registered under {name!r}")

    def schema_names(self) -> list[str]:
        return sorted(self._schemas)

    # -- service registration -----------------------------------------------------

    def register(self, service: ServiceEntry, lease: Optional[float] = None) -> Lease:
        """Advertise a service; the returned lease keeps it alive."""
        if not service.name or not service.kind:
            raise SpaceError("a service needs both a name and a kind")
        if service.schema is not None and service.schema not in self._schemas:
            raise SpaceError(
                f"service {service.name!r} references unknown schema "
                f"{service.schema!r}"
            )
        return self.space.write(service, lease=lease)

    # -- lookup -------------------------------------------------------------------

    def lookup(
        self,
        name: Optional[str] = None,
        kind: Optional[str] = None,
        node: Optional[str] = None,
    ) -> list[ServiceEntry]:
        """All live services matching the given constraints."""
        template = ServiceEntry(name=name, kind=kind, node=node)
        found = []
        # Reads do not consume, so scan by reading every live service
        # entry; the space's matching handles the wildcards.
        seen_ids = set()
        for record in list(self.space._records.values()):
            item = record.item
            if not isinstance(item, ServiceEntry):
                continue
            if record.lease.expired:
                continue
            if template.matches(item) and id(item) not in seen_ids:
                seen_ids.add(id(item))
                found.append(item)
        return found

    def lookup_one(self, **constraints) -> Optional[ServiceEntry]:
        """The oldest matching service, or ``None``."""
        matches = self.lookup(**constraints)
        return matches[0] if matches else None
