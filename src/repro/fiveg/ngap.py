"""NGAP messages: the gNB <-> AMF control interface (5G's S1AP)."""

from __future__ import annotations

from typing import Any

from ..record import record

NGAP_SERVICE = "ngap"
GNB_NGAP_SERVICE = "ngap-gnb"


@record(frozen=True)
class NgSetupRequest:
    gnb_id: str
    plmn: str = "00101"


@record(frozen=True)
class NgSetupResponse:
    amf_name: str
    accepted: bool = True


@record(frozen=True)
class InitialUeMessage5g:
    gnb_id: str
    ran_ue_id: int
    nas: Any = None


@record(frozen=True)
class UplinkNasTransport5g:
    gnb_id: str
    ran_ue_id: int
    amf_ue_id: int
    nas: Any = None


@record(frozen=True)
class DownlinkNasTransport5g:
    ran_ue_id: int
    amf_ue_id: int
    nas: Any = None


@record(frozen=True)
class PduSessionResourceSetupRequest:
    """AMF/SMF instructs the gNB to set up the user-plane resources."""

    ran_ue_id: int
    amf_ue_id: int
    pdu_session_id: int
    agw_teid: int
    agw_address: str
    nas: Any = None   # piggybacked PduSessionEstablishmentAccept


@record(frozen=True)
class PduSessionResourceSetupResponse:
    ran_ue_id: int
    amf_ue_id: int
    pdu_session_id: int
    gnb_teid: int
    gnb_address: str = ""
    success: bool = True

