"""5G NAS messages (registration and PDU session management).

5G splits what LTE's attach bundles together: *registration* (identity,
authentication, security) and *PDU session establishment* (IP + user plane)
are separate procedures.  Magma maps both onto the same generic AGW
functions (Table 1: AMF -> access management, SMF -> session management).
"""

from __future__ import annotations

from ..record import record


@record(frozen=True)
class Nas5gMessage:
    imsi: str  # SUPI; carried as a SUCI in reality


@record(frozen=True)
class RegistrationRequest(Nas5gMessage):
    registration_type: str = "initial"


@record(frozen=True)
class AuthenticationRequest5g(Nas5gMessage):
    rand: bytes = b""
    autn: bytes = b""


@record(frozen=True)
class AuthenticationResponse5g(Nas5gMessage):
    res_star: bytes = b""


@record(frozen=True)
class AuthenticationFailure5g(Nas5gMessage):
    """The USIM refused the challenge: a MAC failure, or
    ``sync_failure:<sqn>`` asking the network to resynchronise."""

    cause: str = ""


@record(frozen=True)
class SecurityModeCommand5g(Nas5gMessage):
    integrity_algo: str = "nia2"
    ciphering_algo: str = "nea2"


@record(frozen=True)
class SecurityModeComplete5g(Nas5gMessage):
    pass


@record(frozen=True)
class RegistrationAccept(Nas5gMessage):
    guti_5g: str = ""


@record(frozen=True)
class RegistrationComplete(Nas5gMessage):
    pass


@record(frozen=True)
class RegistrationReject(Nas5gMessage):
    cause: str = "network failure"


@record(frozen=True)
class PduSessionEstablishmentRequest(Nas5gMessage):
    pdu_session_id: int = 1
    dnn: str = "internet"   # the 5G APN


@record(frozen=True)
class PduSessionEstablishmentAccept(Nas5gMessage):
    pdu_session_id: int = 1
    ue_ip: str = ""
    qfi: int = 9            # QoS flow id (5G's richer QoS model)


@record(frozen=True)
class PduSessionEstablishmentReject(Nas5gMessage):
    pdu_session_id: int = 1
    cause: str = ""


@record(frozen=True)
class PduSessionReleaseRequest(Nas5gMessage):
    pdu_session_id: int = 1


@record(frozen=True)
class PduSessionReleaseComplete(Nas5gMessage):
    pdu_session_id: int = 1


@record(frozen=True)
class DeregistrationRequest(Nas5gMessage):
    switch_off: bool = False


@record(frozen=True)
class DeregistrationAccept(Nas5gMessage):
    pass
