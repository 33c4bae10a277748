"""NAS (Non-Access Stratum) messages and timers.

The NAS dialogue runs end-to-end between the UE and the MME (through the
eNodeB, which does not interpret it).  We model the subset of EMM/ESM
procedures the paper's workloads exercise: attach (with EPS-AKA and
security-mode), detach, and service requests, plus the UE-side retry timers
whose expiry defines a *failed connection attempt* for the CSR metric.
"""

from __future__ import annotations

from ..record import record

# 3GPP TS 24.301 timer defaults (seconds).
T3410_ATTACH = 15.0       # attach procedure guard timer
T3411_RETRY = 10.0        # retry delay after a failed attach
MAX_ATTACH_ATTEMPTS = 5


@record(frozen=True)
class NasMessage:
    """Base class for NAS messages; ``imsi`` identifies the UE."""

    imsi: str


@record(frozen=True)
class AttachRequest(NasMessage):
    ue_capabilities: tuple = ("lte",)
    attach_type: str = "eps"


@record(frozen=True)
class AuthenticationRequest(NasMessage):
    rand: bytes = b""
    autn: bytes = b""


@record(frozen=True)
class AuthenticationResponse(NasMessage):
    res: bytes = b""


@record(frozen=True)
class AuthenticationReject(NasMessage):
    cause: str = "authentication failure"


@record(frozen=True)
class AuthenticationFailureMsg(NasMessage):
    """UE-side failure report (e.g. AUTN MAC failure, SQN resync)."""

    cause: str = ""


@record(frozen=True)
class SecurityModeCommand(NasMessage):
    integrity_algo: str = "eia2"
    ciphering_algo: str = "eea2"


@record(frozen=True)
class SecurityModeComplete(NasMessage):
    pass


@record(frozen=True)
class AttachAccept(NasMessage):
    ue_ip: str = ""
    bearer_id: int = 5
    guti: str = ""
    apn: str = "internet"
    qci: int = 9


@record(frozen=True)
class AttachComplete(NasMessage):
    pass


@record(frozen=True)
class AttachReject(NasMessage):
    cause: str = "network failure"


@record(frozen=True)
class DetachRequest(NasMessage):
    switch_off: bool = False


@record(frozen=True)
class DetachAccept(NasMessage):
    pass


@record(frozen=True)
class ServiceRequest(NasMessage):
    """UE returning from idle to connected."""


@record(frozen=True)
class ServiceAccept(NasMessage):
    pass


@record(frozen=True)
class ServiceReject(NasMessage):
    cause: str = ""
