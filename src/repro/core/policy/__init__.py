"""Policy and charging: rules, enforcement, online charging, accounting."""

from .accounting import AccountingLog, ChargingDataRecord
from .enforcer import EnforcementDecision, EnforcementState, UNLIMITED_MBPS
from .rules import (
    ChargingMode,
    GB,
    MB,
    PolicyRule,
    capped,
    prepaid,
    rate_limited,
    unlimited,
)

__all__ = [
    "AccountingLog",
    "ChargingDataRecord",
    "ChargingMode",
    "EnforcementDecision",
    "EnforcementState",
    "GB",
    "MB",
    "PolicyRule",
    "UNLIMITED_MBPS",
    "capped",
    "prepaid",
    "rate_limited",
    "unlimited",
]
