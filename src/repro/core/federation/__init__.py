"""Federation with external MNO cores (paper §3.6)."""

from .feg import FEG_SERVICE, FederationGateway
from .gtp_aggregator import DEFAULT_GTPA_CAPACITY_MBPS, GtpAggregator
from .mno_core import MnoSubscriber, PartnerMnoCore
from .modes import DeploymentMode, user_plane_egress, validate_mode

__all__ = [
    "DEFAULT_GTPA_CAPACITY_MBPS",
    "DeploymentMode",
    "FEG_SERVICE",
    "FederationGateway",
    "GtpAggregator",
    "MnoSubscriber",
    "PartnerMnoCore",
    "user_plane_egress",
    "validate_mode",
]
