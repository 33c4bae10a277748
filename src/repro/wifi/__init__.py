"""WiFi substrate: APs, RADIUS AAA, captive portal."""

from . import eap
from .ap import AP_CAPACITY_MBPS, WifiAp, WifiClientState
from .captive_portal import CaptivePortal, PortalError, PortalSession, Voucher
from .radius import (
    AccessAccept,
    AccessReject,
    AccessRequest,
    AccountingRequest,
    AccountingResponse,
    RADIUS_SERVICE,
)

__all__ = [
    "AP_CAPACITY_MBPS",
    "AccessAccept",
    "AccessReject",
    "AccessRequest",
    "AccountingRequest",
    "AccountingResponse",
    "CaptivePortal",
    "eap",
    "PortalError",
    "PortalSession",
    "RADIUS_SERVICE",
    "Voucher",
    "WifiAp",
    "WifiClientState",
]
