"""Federation with external MNO cores (paper §3.6)."""

from .feg import FEG_SERVICE, FederationGateway
from .modes import DeploymentMode, user_plane_egress, validate_mode

__all__ = [
    "DeploymentMode",
    "FEG_SERVICE",
    "FederationGateway",
    "user_plane_egress",
    "validate_mode",
]
