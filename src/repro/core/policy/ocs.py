"""Online charging system (OCS).

Volume-based billing per §3.4: the OCS owns the subscriber's prepaid
balance and authorizes small quotas (default 1 MB) to AGWs on the user's
behalf.  Whether a quota has been granted is *configuration* state; the
amount remaining inside a grant is *runtime* state local to the AGW.

Reservation semantics reproduce the paper's double-spend bound: a grant
*reserves* balance; the OCS charges only what usage reports account for.  A
reservation abandoned by a crashed/moved AGW eventually expires and its
unreported remainder is released uncharged - so a strategic user's maximum
free consumption is capped by the quota size per AGW move, "a business
decision" (§3.4).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ...record import record

DEFAULT_QUOTA_BYTES = 1_000_000  # the paper's example quota: 1 MB
DEFAULT_RESERVATION_TTL = 300.0


class OcsError(Exception):
    """Unknown subscriber or invalid charging operation."""


@record
class QuotaGrant:
    grant_id: int
    imsi: str
    agw_id: str
    granted_bytes: int
    reported_bytes: int = 0
    issued_at: float = 0.0
    closed: bool = False


@record
class Account:
    imsi: str
    balance_bytes: int
    reserved_bytes: int = 0
    charged_bytes: int = 0

    @property
    def available_bytes(self) -> int:
        return max(0, self.balance_bytes - self.reserved_bytes)


class OnlineChargingSystem:
    """A third-party OCS as seen from Magma: balances, grants, reports."""

    def __init__(self, quota_bytes: int = DEFAULT_QUOTA_BYTES,
                 reservation_ttl: float = DEFAULT_RESERVATION_TTL,
                 clock=None):
        if quota_bytes <= 0:
            raise ValueError("quota size must be positive")
        self.quota_bytes = quota_bytes
        self.reservation_ttl = reservation_ttl
        self._clock = clock or (lambda: 0.0)
        self._accounts: Dict[str, Account] = {}
        self._grants: Dict[int, QuotaGrant] = {}
        self._grant_ids = itertools.count(1)
        self.stats = {"grants": 0, "denials": 0, "reports": 0,
                      "expired_reservations": 0}

    # -- account management -------------------------------------------------------

    def provision(self, imsi: str, balance_bytes: int) -> Account:
        if balance_bytes < 0:
            raise ValueError("balance must be >= 0")
        account = Account(imsi=imsi, balance_bytes=balance_bytes)
        self._accounts[imsi] = account
        return account

    def account(self, imsi: str) -> Account:
        return self._account(imsi)

    def _account(self, imsi: str) -> Account:
        account = self._accounts.get(imsi)
        if account is None:
            raise OcsError(f"no OCS account for {imsi}")
        return account

    # -- charging session ----------------------------------------------------------

    def request_quota(self, imsi: str, agw_id: str,
                      requested_bytes: Optional[int] = None) -> Optional[QuotaGrant]:
        """Authorize a quota for ``imsi`` at ``agw_id``; None if denied."""
        self._expire_stale()
        account = self._account(imsi)
        want = requested_bytes or self.quota_bytes
        grant_size = min(want, account.available_bytes)
        if grant_size <= 0:
            self.stats["denials"] += 1
            return None
        grant = QuotaGrant(grant_id=next(self._grant_ids), imsi=imsi,
                           agw_id=agw_id, granted_bytes=grant_size,
                           issued_at=self._clock())
        account.reserved_bytes += grant_size
        self._grants[grant.grant_id] = grant
        self.stats["grants"] += 1
        return grant

    def report_usage(self, grant_id: int, used_bytes: int,
                     final: bool = False) -> None:
        """AGW reports consumption against a grant (charges the balance)."""
        grant = self._grants.get(grant_id)
        if grant is None or grant.closed:
            raise OcsError(f"unknown or closed grant {grant_id}")
        if used_bytes < grant.reported_bytes:
            raise OcsError("usage reports must be monotonic")
        delta = min(used_bytes, grant.granted_bytes) - grant.reported_bytes
        account = self._account(grant.imsi)
        account.charged_bytes += delta
        account.balance_bytes -= delta
        account.reserved_bytes -= delta
        grant.reported_bytes += delta
        self.stats["reports"] += 1
        if final:
            self._close(grant)

    def _close(self, grant: QuotaGrant) -> None:
        account = self._account(grant.imsi)
        unreported = grant.granted_bytes - grant.reported_bytes
        account.reserved_bytes -= unreported  # released, not charged
        grant.closed = True

    def _expire_stale(self) -> None:
        """Release reservations whose TTL lapsed.  Crashed/moved AGWs leave
        orphaned grants; this bounds the operator's exposure to quota size."""
        now = self._clock()
        for grant in list(self._grants.values()):
            if grant.closed:
                continue
            if now - grant.issued_at > self.reservation_ttl:
                self.stats["expired_reservations"] += 1
                self._close(grant)
