"""5G substrate: gNB, NGAP, 5G NAS, 5G UE."""

from . import nas5g, ngap
from .gnb import Gnb
from .ue5g import Ue5g, Ue5gState

__all__ = ["Gnb", "Ue5g", "Ue5gState", "nas5g", "ngap"]
