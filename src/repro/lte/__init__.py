"""LTE substrate: UEs, eNodeBs, NAS/S1AP, EPS-AKA, GTP-C, radio capacity."""

from . import auth, nas, s1ap
from .enodeb import ENB_S1AP_SERVICE, Enodeb
from .identifiers import EcgI, Tai, TeidAllocator, TEST_PLMN, make_imsi
from .radio import CellCapacityError, CellConfig, CellModel
from .ran import RanNode, RanUeContext
from .ue import AttachOutcome, Ue, UeConfig, UeState

__all__ = [
    "AttachOutcome",
    "CellCapacityError",
    "CellConfig",
    "CellModel",
    "EcgI",
    "ENB_S1AP_SERVICE",
    "Enodeb",
    "RanNode",
    "RanUeContext",
    "Tai",
    "TeidAllocator",
    "TEST_PLMN",
    "Ue",
    "UeConfig",
    "UeState",
    "auth",
    "make_imsi",
    "nas",
    "s1ap",
]
