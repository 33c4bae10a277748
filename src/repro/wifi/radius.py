"""RADIUS messages: WiFi's AAA protocol (paper Table 1).

In a Magma carrier-WiFi deployment the access point authenticates users via
RADIUS against the AGW, which terminates the protocol in its RADIUS
frontend and maps it onto the same generic subscriber/session functions
LTE and 5G use.
"""

from __future__ import annotations

from ..record import record

RADIUS_SERVICE = "radius"


@record(frozen=True)
class EapStartRequest:
    """First RADIUS round trip: the supplicant identifies itself and the
    server answers with an EAP challenge."""

    username: str
    ap_id: str
    client_mac: str


@record(frozen=True)
class EapChallengeResponse:
    username: str
    nonce: bytes


@record(frozen=True)
class AccessRequest:
    username: str          # the subscriber id (IMSI-equivalent)
    ap_id: str
    client_mac: str
    eap_proof: bytes = b""  # HMAC proof over the server's challenge
    nonce: bytes = b""      # echo of the challenge this proof answers


@record(frozen=True)
class AccessAccept:
    username: str
    framed_ip: str         # the IP assigned to the client
    session_id: str


@record(frozen=True)
class AccessReject:
    username: str
    cause: str = "authentication failure"


@record(frozen=True)
class AccountingRequest:
    ACCT_START = "start"
    ACCT_STOP = "stop"
    ACCT_INTERIM = "interim"

    username: str
    session_id: str
    acct_type: str
    bytes_dl: int = 0
    bytes_ul: int = 0


@record(frozen=True)
class AccountingResponse:
    session_id: str
