"""Network policy rules.

The paper's canonical example (§2.1): *"rate limit customer C to X Mbps
until they have sent Y GB in interval t1, then limit to Z Mbps for interval
t2."*  :class:`PolicyRule` expresses exactly that family - a sustained rate
limit, an optional usage cap per interval, a throttled rate once the cap is
hit, and an optional online-charging mode where usage draws down OCS quota
grants (§3.4).

Policies are *configuration state*: authored at the orchestrator, pushed to
AGWs, and cached there for headless operation.
"""

from __future__ import annotations

from typing import Optional

from ...record import record

GB = 1_000_000_000
MB = 1_000_000


class ChargingMode:
    NONE = "none"          # free/unlimited accounting only
    ONLINE = "online"      # draws quota grants from the OCS


@record(frozen=True)
class PolicyRule:
    """A per-subscriber-class policy."""

    policy_id: str
    rate_limit_mbps: Optional[float] = None   # None = unshaped
    usage_cap_bytes: Optional[int] = None     # None = no cap
    throttled_rate_mbps: Optional[float] = None  # once cap is hit
    cap_interval_s: Optional[float] = None    # rolling interval; None = lifetime
    qci: int = 9
    charging: str = ChargingMode.NONE
    priority: int = 10

    def __post_init__(self):
        if self.rate_limit_mbps is not None and self.rate_limit_mbps <= 0:
            raise ValueError("rate limit must be positive")
        if self.usage_cap_bytes is not None and self.usage_cap_bytes <= 0:
            raise ValueError("usage cap must be positive")
        if self.throttled_rate_mbps is not None and self.throttled_rate_mbps <= 0:
            raise ValueError("throttled rate must be positive")
        if self.usage_cap_bytes is None and self.throttled_rate_mbps is not None:
            raise ValueError("throttled rate requires a usage cap")
        if self.charging not in (ChargingMode.NONE, ChargingMode.ONLINE):
            raise ValueError(f"unknown charging mode {self.charging!r}")


def unlimited(policy_id: str = "unlimited") -> PolicyRule:
    """The AccessParks policy (§4.3.1): backhaul UEs get unrestricted access."""
    return PolicyRule(policy_id=policy_id)


def rate_limited(policy_id: str, mbps: float) -> PolicyRule:
    return PolicyRule(policy_id=policy_id, rate_limit_mbps=mbps)


def capped(policy_id: str, mbps: float, cap_bytes: int,
           throttled_mbps: float, interval_s: Optional[float] = None) -> PolicyRule:
    """The paper's X-until-Y-then-Z policy."""
    return PolicyRule(policy_id=policy_id, rate_limit_mbps=mbps,
                      usage_cap_bytes=cap_bytes,
                      throttled_rate_mbps=throttled_mbps,
                      cap_interval_s=interval_s)


def prepaid(policy_id: str, mbps: Optional[float] = None) -> PolicyRule:
    """Online-charged policy: usage draws down OCS quota grants."""
    return PolicyRule(policy_id=policy_id, rate_limit_mbps=mbps,
                      charging=ChargingMode.ONLINE)
