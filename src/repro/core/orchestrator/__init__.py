"""The Magma orchestrator: central control plane (§3.2)."""

from .alerting import Alert, AlertManager, AlertRule
from .config_store import ConfigStore, WalEntry
from .metricsd import Metricsd, Sample
from .orchestrator import Orchestrator
from .statesync import (
    DEFAULT_NETWORK,
    GatewayState,
    NS_GATEWAYS,
    NS_POLICIES,
    NS_RAN,
    NS_SUBSCRIBERS,
    StateSync,
    scoped,
)

__all__ = [
    "Alert",
    "AlertManager",
    "AlertRule",
    "ConfigStore",
    "GatewayState",
    "Metricsd",
    "NS_GATEWAYS",
    "NS_POLICIES",
    "NS_RAN",
    "NS_SUBSCRIBERS",
    "Orchestrator",
    "Sample",
    "StateSync",
    "scoped",
    "DEFAULT_NETWORK",
    "WalEntry",
]
