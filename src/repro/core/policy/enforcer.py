"""Policy enforcement state: per-session usage tracking and rate decisions.

``sessiond`` keeps one :class:`EnforcementState` per active session.  The
enforcer answers two questions each accounting tick:

- *What rate may this session receive right now?*  (the policy's normal
  rate, the throttled rate once a cap is exhausted, or zero when online
  charging has no quota left)
- *Has anything changed that the data plane must be reprogrammed for?*
  (meter reconfiguration when transitioning to/from throttled state)
"""

from __future__ import annotations

from typing import Optional

from .rules import ChargingMode, PolicyRule

UNLIMITED_MBPS = 10_000.0  # sentinel "no shaping" rate for meters
#: Online charging asks for more quota once the grant left falls below
#: this share of the last grant.
QUOTA_REFILL_THRESHOLD = 0.2


class EnforcementDecision:
    """What the data plane should currently allow for a session."""

    __slots__ = ("allowed_mbps", "throttled", "blocked", "needs_quota")

    def __init__(self, allowed_mbps: float, throttled: bool = False,
                 blocked: bool = False, needs_quota: bool = False):
        self.allowed_mbps = allowed_mbps
        self.throttled = throttled
        self.blocked = blocked
        self.needs_quota = needs_quota


class EnforcementState:
    """Mutable per-session policy state (runtime state, AGW-local)."""

    def __init__(self, policy: PolicyRule, session_start: float = 0.0):
        self.policy = policy
        self.total_bytes = 0
        self.interval_bytes = 0
        self.interval_start = session_start
        self.quota_remaining = 0      # online charging: bytes left in grant
        self.quota_grant_id: Optional[int] = None
        self._last_grant_size = 0

    # -- usage accounting ------------------------------------------------------

    def record_usage(self, used_bytes: int, now: float) -> None:
        """Account ``used_bytes`` of traffic against the policy."""
        if used_bytes < 0:
            raise ValueError("usage must be >= 0")
        self._maybe_reset_interval(now)
        self.total_bytes += used_bytes
        self.interval_bytes += used_bytes
        if self.policy.charging == ChargingMode.ONLINE:
            self.quota_remaining = max(0, self.quota_remaining - used_bytes)

    def add_quota(self, grant_id: int, granted_bytes: int) -> None:
        self.quota_grant_id = grant_id
        self.quota_remaining += granted_bytes
        self._last_grant_size = granted_bytes

    def _maybe_reset_interval(self, now: float) -> None:
        interval = self.policy.cap_interval_s
        if interval is None:
            return
        if now - self.interval_start >= interval:
            # Advance to the current interval boundary.
            periods = int((now - self.interval_start) / interval)
            self.interval_start += periods * interval
            self.interval_bytes = 0

    # -- decisions ------------------------------------------------------------------

    def decide(self, now: float) -> EnforcementDecision:
        """The current enforcement decision for this session."""
        self._maybe_reset_interval(now)
        policy = self.policy
        if policy.charging == ChargingMode.ONLINE:
            if self.quota_remaining <= 0:
                return EnforcementDecision(0.0, blocked=True, needs_quota=True)
            needs_quota = (self._last_grant_size > 0 and
                           self.quota_remaining <
                           self._last_grant_size * QUOTA_REFILL_THRESHOLD)
            rate = policy.rate_limit_mbps or UNLIMITED_MBPS
            return EnforcementDecision(rate, needs_quota=needs_quota)
        if policy.usage_cap_bytes is not None and \
                self.interval_bytes >= policy.usage_cap_bytes:
            throttled_rate = policy.throttled_rate_mbps
            if throttled_rate is None:
                return EnforcementDecision(0.0, throttled=True, blocked=True)
            return EnforcementDecision(throttled_rate, throttled=True)
        return EnforcementDecision(policy.rate_limit_mbps or UNLIMITED_MBPS)
