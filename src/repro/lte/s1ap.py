"""S1AP messages: the eNodeB <-> MME control interface.

In a real network S1AP runs over SCTP; here the messages are carried over
the reproduction's reliable RPC layer (see ``repro.net.rpc``), which gives
equivalent in-order, retransmitted delivery.  The AGW terminates S1AP in its
access frontend (the paper's "terminate radio-specific protocols early").
"""

from __future__ import annotations

from typing import Any

from ..record import record
from .identifiers import EcgI, Tai

S1AP_SERVICE = "s1ap"


@record(frozen=True)
class S1SetupRequest:
    """eNodeB registers with its MME."""

    enb_id: str
    tai: Tai = Tai()
    cell: EcgI = EcgI()


@record(frozen=True)
class S1SetupResponse:
    mme_name: str
    served_plmn: str
    accepted: bool = True


@record(frozen=True)
class InitialUeMessage:
    """First uplink NAS message for a new UE (carries AttachRequest)."""

    enb_id: str
    enb_ue_id: int
    nas: Any = None
    tai: Tai = Tai()


@record(frozen=True)
class UplinkNasTransport:
    enb_id: str
    enb_ue_id: int
    mme_ue_id: int
    nas: Any = None


@record(frozen=True)
class DownlinkNasTransport:
    enb_ue_id: int
    mme_ue_id: int
    nas: Any = None


@record(frozen=True)
class InitialContextSetupRequest:
    """MME instructs the eNodeB to set up the UE context and data bearer."""

    enb_ue_id: int
    mme_ue_id: int
    ue_agg_max_bitrate_mbps: float
    agw_teid: int            # AGW-side GTP-U endpoint for uplink
    agw_address: str
    nas: Any = None          # piggybacked AttachAccept
    security_key: bytes = b""


@record(frozen=True)
class InitialContextSetupResponse:
    enb_ue_id: int
    mme_ue_id: int
    enb_teid: int            # eNodeB-side GTP-U endpoint for downlink
    enb_address: str = ""
    success: bool = True


@record(frozen=True)
class UeContextReleaseRequest:
    """eNodeB-initiated release (user inactivity): the UE goes ECM-IDLE.

    The session stays anchored at the AGW; only the radio context and the
    S1 tunnel are torn down until paging/service-request brings the UE
    back (idle-mode signalling, the IoT-heavy workload pattern of §4.2).
    """

    enb_id: str
    enb_ue_id: int
    mme_ue_id: int
    imsi: str
    cause: str = "user-inactivity"


@record(frozen=True)
class Paging:
    """MME asks the eNodeB to page an idle UE (downlink data pending)."""

    imsi: str


@record(frozen=True)
class PathSwitchRequest:
    """Target eNodeB announces a UE that moved to it (X2-style handover).

    Intra-AGW mobility (§3.2): the session - IP address, policy state,
    usage counters - stays in place; only the RAN-side tunnel endpoint
    switches.
    """

    enb_id: str
    enb_ue_id: int
    mme_ue_id: int
    imsi: str
    enb_teid: int
    enb_address: str = ""


@record(frozen=True)
class PathSwitchRequestAck:
    enb_ue_id: int
    mme_ue_id: int
    success: bool = True
    cause: str = ""


@record(frozen=True)
class UeContextReleaseCommand:
    enb_ue_id: int
    mme_ue_id: int
    cause: str = "detach"


@record(frozen=True)
class UeContextReleaseComplete:
    enb_ue_id: int
    mme_ue_id: int
