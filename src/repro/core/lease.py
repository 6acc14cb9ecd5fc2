"""Leases on entries and registrations (JavaSpaces lease model).

Every entry written to a space gets a lease; when the lease expires the
entry vanishes.  Table 4 of the paper is built on exactly this mechanism:
the client's ``take`` succeeds "only if the entry lifetime is not
out-of-date" under a 160 s lease.

Leases can be renewed and cancelled.  ``FOREVER`` requests an unlimited
lease; the space may cap it (``max_lease``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.core.clock import Clock
from repro.core.errors import LeaseDeniedError, LeaseExpiredError

#: Requested duration meaning "never expire".
FOREVER = math.inf


class Lease:
    """A grant of storage (or registration) for a bounded duration.

    ``max_duration`` is the granting space's policy cap: renewals are
    clamped to it exactly like the original grant, so a client cannot
    renew its way past what :meth:`LeaseManager.grant` enforced.
    ``key`` names the grant within its space (the entry's sequence
    number or the registration id); the granting space sets it, and
    :meth:`TupleSpace.lease` resolves it back to the lease while the
    grant lives.
    """

    __slots__ = (
        "clock",
        "granted_at",
        "expires_at",
        "max_duration",
        "key",
        "_on_cancel",
        "_on_renew",
        "cancelled",
    )

    def __init__(
        self,
        clock: Clock,
        duration: float,
        on_cancel: Optional[Callable[["Lease"], None]] = None,
        max_duration: float = FOREVER,
        on_renew: Optional[Callable[["Lease"], None]] = None,
    ):
        if not duration > 0:  # NaN too: a NaN deadline never passes
            raise LeaseDeniedError(f"lease duration must be positive, got {duration}")
        self.clock = clock
        self.granted_at = clock.now()
        self.expires_at = self.granted_at + duration
        self.max_duration = max_duration
        self.key = 0
        self._on_cancel = on_cancel
        self._on_renew = on_renew
        self.cancelled = False

    @property
    def duration(self) -> float:
        return self.expires_at - self.granted_at

    def remaining(self) -> float:
        """Seconds left (0 when expired or cancelled)."""
        if self.cancelled:
            return 0.0
        return max(0.0, self.expires_at - self.clock.now())

    @property
    def expired(self) -> bool:
        return self.cancelled or self.clock.now() >= self.expires_at

    def renew(self, duration: float) -> float:
        """Extend the lease to ``duration`` from now; returns the
        granted duration (clamped to the grantor's ``max_duration``).

        The grant window restarts at the renewal instant, so
        :attr:`duration` reports the renewed term, not the total
        lifetime accumulated across renewals.
        """
        if self.expired:
            raise LeaseExpiredError("cannot renew an expired lease")
        if not duration > 0:
            raise LeaseDeniedError(f"renewal duration must be positive, got {duration}")
        granted = min(duration, self.max_duration)
        self.granted_at = self.clock.now()
        self.expires_at = self.granted_at + granted
        if self._on_renew is not None:
            self._on_renew(self)
        return granted

    def cancel(self) -> None:
        """Give the grant back early."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel(self)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else (
            "expired" if self.expired else f"{self.remaining():.3f}s left"
        )
        return f"Lease({state})"


class LeaseManager:
    """Grants leases, applying the space's duration policy."""

    def __init__(self, clock: Clock, max_lease: float = FOREVER, default_lease: float = FOREVER):
        if not (max_lease > 0 and default_lease > 0):
            raise LeaseDeniedError("lease bounds must be positive")
        self.clock = clock
        self.max_lease = max_lease
        self.default_lease = default_lease

    def grant(
        self,
        duration: Optional[float] = None,
        on_cancel: Optional[Callable[[Lease], None]] = None,
        on_renew: Optional[Callable[[Lease], None]] = None,
    ) -> Lease:
        """Grant a lease of ``duration`` (clamped to the space maximum).

        The cap travels with the lease: renewals clamp against the same
        ``max_lease`` this grant applied.
        """
        requested = self.default_lease if duration is None else duration
        if not requested > 0:
            raise LeaseDeniedError(f"lease duration must be positive, got {requested}")
        granted = min(requested, self.max_lease)
        return Lease(
            self.clock,
            granted,
            on_cancel=on_cancel,
            max_duration=self.max_lease,
            on_renew=on_renew,
        )
