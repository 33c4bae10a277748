"""WiFi substrate: APs, RADIUS AAA, captive portal."""

from . import eap
from .ap import AP_CAPACITY_MBPS, WifiAp, WifiClientState
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
    "eap",
    "RADIUS_SERVICE",
    "WifiAp",
    "WifiClientState",
]
