"""The Magma Access Gateway and its services (paper Figure 4)."""

from .context import (
    AgwConfig,
    AgwContext,
    AgwHardwareProfile,
    BARE_METAL,
    CPU_CLASS_CONTROL,
    CPU_CLASS_USER,
    VIRTUAL_4VCPU,
    VIRTUAL_8VCPU,
    virtual_profile,
)
from .directoryd import Directoryd, LocationRecord
from .enodebd import Enodebd, RanDevice
from .gateway import AccessGateway
from .health import HealthCheck, HealthService
from .magmad import CheckpointStore, Magmad
from .mme import AccessContext, AccessManagement, RanFrontend, UeContextState
from .mobilityd import IpPoolExhausted, Mobilityd
from .pipelined import Pipelined, SessionFlows
from .policydb import PolicyDb
from .s1ap_frontend import S1apFrontend
from .sessiond import (
    LocalOcsClient,
    OcsClient,
    RpcOcsClient,
    SessionError,
    SessionRecord,
    SessionState,
    Sessiond,
)
from .subscriberdb import SubscriberDb, SubscriberProfile

__all__ = [
    "AccessContext",
    "AccessGateway",
    "AccessManagement",
    "AgwConfig",
    "AgwContext",
    "AgwHardwareProfile",
    "BARE_METAL",
    "CheckpointStore",
    "CPU_CLASS_CONTROL",
    "CPU_CLASS_USER",
    "Directoryd",
    "Enodebd",
    "HealthCheck",
    "HealthService",
    "IpPoolExhausted",
    "LocalOcsClient",
    "LocationRecord",
    "Magmad",
    "Mobilityd",
    "OcsClient",
    "Pipelined",
    "PolicyDb",
    "RanDevice",
    "RanFrontend",
    "RpcOcsClient",
    "S1apFrontend",
    "SessionError",
    "SessionFlows",
    "SessionRecord",
    "SessionState",
    "Sessiond",
    "SubscriberDb",
    "SubscriberProfile",
    "UeContextState",
    "VIRTUAL_4VCPU",
    "VIRTUAL_8VCPU",
    "virtual_profile",
]
