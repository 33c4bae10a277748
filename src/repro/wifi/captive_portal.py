"""Captive portal: the AccessParks-style WiFi front door (§4.3.1).

In the AccessParks deployment, per-user policy lives in a pre-existing
captive portal + prepaid billing system at the WiFi layer, while Magma's
LTE network just provides unrestricted backhaul to the APs.  This module
models that portal: voucher-based prepaid accounts, per-voucher time and
data allowances, and an allowlist the AP consults before forwarding.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..record import record


class PortalError(Exception):
    """Invalid voucher or login state."""


@record
class Voucher:
    code: str
    data_allowance_bytes: Optional[int]   # None = unlimited
    time_allowance_s: Optional[float]     # None = unlimited
    used_bytes: int = 0
    activated_at: Optional[float] = None


@record
class PortalSession:
    client_mac: str
    voucher_code: str
    started_at: float


class CaptivePortal:
    """Voucher-gated access control at the WiFi edge."""

    def __init__(self, clock=None):
        self._clock = clock or (lambda: 0.0)
        self._vouchers: Dict[str, Voucher] = {}
        self._sessions: Dict[str, PortalSession] = {}
        self.stats = {"logins": 0, "rejected": 0, "expired": 0}

    def issue_voucher(self, code: str,
                      data_allowance_bytes: Optional[int] = None,
                      time_allowance_s: Optional[float] = None) -> Voucher:
        if code in self._vouchers:
            raise PortalError(f"voucher {code!r} already issued")
        voucher = Voucher(code=code,
                          data_allowance_bytes=data_allowance_bytes,
                          time_allowance_s=time_allowance_s)
        self._vouchers[code] = voucher
        return voucher

    def login(self, client_mac: str, voucher_code: str) -> PortalSession:
        voucher = self._vouchers.get(voucher_code)
        if voucher is None:
            self.stats["rejected"] += 1
            raise PortalError("unknown voucher")
        if self._voucher_exhausted(voucher):
            self.stats["rejected"] += 1
            raise PortalError("voucher exhausted")
        now = self._clock()
        if voucher.activated_at is None:
            voucher.activated_at = now
        session = PortalSession(client_mac=client_mac,
                                voucher_code=voucher_code, started_at=now)
        self._sessions[client_mac] = session
        self.stats["logins"] += 1
        return session

    def is_allowed(self, client_mac: str) -> bool:
        session = self._sessions.get(client_mac)
        if session is None:
            return False
        voucher = self._vouchers[session.voucher_code]
        if self._voucher_exhausted(voucher):
            self.stats["expired"] += 1
            del self._sessions[client_mac]
            return False
        return True

    def record_usage(self, client_mac: str, used_bytes: int) -> None:
        session = self._sessions.get(client_mac)
        if session is None:
            return
        self._vouchers[session.voucher_code].used_bytes += used_bytes

    def _voucher_exhausted(self, voucher: Voucher) -> bool:
        if (voucher.data_allowance_bytes is not None
                and voucher.used_bytes >= voucher.data_allowance_bytes):
            return True
        if (voucher.time_allowance_s is not None
                and voucher.activated_at is not None
                and self._clock() - voucher.activated_at >
                voucher.time_allowance_s):
            return True
        return False

    def active_sessions(self) -> int:
        return len(self._sessions)
