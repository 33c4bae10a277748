"""NAS (Non-Access Stratum) messages and timers.

The NAS dialogue runs end-to-end between the UE and the MME (through the
eNodeB, which does not interpret it).  We model the subset of EMM/ESM
procedures the paper's workloads exercise: attach (with EPS-AKA and
security-mode), detach, and service requests, plus the UE-side retry timers
whose expiry defines a *failed connection attempt* for the CSR metric.
"""

from __future__ import annotations

from dataclasses import dataclass

# 3GPP TS 24.301 timer defaults (seconds).
T3410_ATTACH = 15.0       # attach procedure guard timer
T3411_RETRY = 10.0        # retry delay after a failed attach
MAX_ATTACH_ATTEMPTS = 5


@dataclass(frozen=True)
class NasMessage:
    """Base class for NAS messages; ``imsi`` identifies the UE."""

    imsi: str


@dataclass(frozen=True)
class AttachRequest(NasMessage):
    ue_capabilities: tuple = ("lte",)
    attach_type: str = "eps"


@dataclass(frozen=True)
class AuthenticationRequest(NasMessage):
    rand: bytes = b""
    autn: bytes = b""


@dataclass(frozen=True)
class AuthenticationResponse(NasMessage):
    res: bytes = b""


@dataclass(frozen=True)
class AuthenticationReject(NasMessage):
    cause: str = "authentication failure"


@dataclass(frozen=True)
class AuthenticationFailureMsg(NasMessage):
    """UE-side failure report (e.g. AUTN MAC failure, SQN resync)."""

    cause: str = ""


@dataclass(frozen=True)
class SecurityModeCommand(NasMessage):
    integrity_algo: str = "eia2"
    ciphering_algo: str = "eea2"


@dataclass(frozen=True)
class SecurityModeComplete(NasMessage):
    pass


@dataclass(frozen=True)
class AttachAccept(NasMessage):
    ue_ip: str = ""
    bearer_id: int = 5
    guti: str = ""
    apn: str = "internet"
    qci: int = 9


@dataclass(frozen=True)
class AttachComplete(NasMessage):
    pass


@dataclass(frozen=True)
class AttachReject(NasMessage):
    cause: str = "network failure"


@dataclass(frozen=True)
class DetachRequest(NasMessage):
    switch_off: bool = False


@dataclass(frozen=True)
class DetachAccept(NasMessage):
    pass


@dataclass(frozen=True)
class ServiceRequest(NasMessage):
    """UE returning from idle to connected."""


@dataclass(frozen=True)
class ServiceAccept(NasMessage):
    pass


@dataclass(frozen=True)
class ServiceReject(NasMessage):
    cause: str = ""
