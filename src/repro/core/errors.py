"""Tuplespace middleware exceptions."""


class SpaceError(Exception):
    """Base class for tuplespace errors."""


class NoMatchError(SpaceError):
    """A blocking read/take timed out without finding a matching entry."""


class LeaseDeniedError(SpaceError):
    """The space refused the requested lease duration."""


class LeaseExpiredError(SpaceError):
    """An operation referenced a lease that has already expired."""


class ProtocolError(SpaceError):
    """Malformed wire-protocol message or XML entry encoding."""


class ConnectionClosedError(SpaceError, ConnectionError):
    """The transport closed mid-request (also a ``ConnectionError``)."""


class RequestTimeoutError(SpaceError):
    """A client request got no response within its deadline."""


class CircuitOpenError(SpaceError):
    """The circuit breaker is open; the operation was not attempted."""
