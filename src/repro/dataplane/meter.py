"""Token-bucket meters: the data plane's rate-limiting primitive.

Meters serve double duty in this reproduction:

- **Per-packet** (:meth:`TokenBucketMeter.allow`): exact token-bucket
  admission for unit tests, examples, and small-scale packet runs.
- **Fluid** (:meth:`TokenBucketMeter.shape`): given an offered rate, the
  admitted rate - used by the experiment harness, where per-packet
  simulation of hundreds of Mbps would be pointless.

Both views are consistent: a bucket of rate R admits at most R on average.
"""

from __future__ import annotations



class TokenBucketMeter:
    """A classic token bucket: ``rate_mbps`` sustained, ``burst_bytes`` depth."""

    def __init__(self, meter_id: int, rate_mbps: float,
                 burst_bytes: int = 125_000):
        if rate_mbps <= 0:
            raise ValueError("meter rate must be positive")
        if burst_bytes <= 0:
            raise ValueError("burst must be positive")
        self.meter_id = meter_id
        self.rate_mbps = rate_mbps
        self.burst_bytes = burst_bytes
        self._tokens = float(burst_bytes)
        self._last_refill = 0.0
        self.stats = {"allowed_packets": 0, "dropped_packets": 0,
                      "allowed_bytes": 0, "dropped_bytes": 0}

    @property
    def rate_bytes_per_sec(self) -> float:
        return self.rate_mbps * 1e6 / 8.0

    def _refill(self, now: float) -> None:
        if now < self._last_refill:
            raise ValueError("meter clock went backwards")
        elapsed = now - self._last_refill
        self._last_refill = now
        self._tokens = min(self.burst_bytes,
                           self._tokens + elapsed * self.rate_bytes_per_sec)

    def allow(self, size_bytes: int, now: float) -> bool:
        """Per-packet admission: True if the packet passes the meter."""
        self._refill(now)
        if self._tokens >= size_bytes:
            self._tokens -= size_bytes
            self.stats["allowed_packets"] += 1
            self.stats["allowed_bytes"] += size_bytes
            return True
        self.stats["dropped_packets"] += 1
        self.stats["dropped_bytes"] += size_bytes
        return False

    def shape(self, offered_mbps: float) -> float:
        """Fluid admission: the sustained rate admitted for an offered rate."""
        if offered_mbps < 0:
            raise ValueError("offered rate must be >= 0")
        return min(offered_mbps, self.rate_mbps)

    def reconfigure(self, rate_mbps: float,
                    burst_bytes: int | None = None) -> None:
        """Change the rate (e.g. policy moved a UE to a throttled tier)."""
        if rate_mbps <= 0:
            raise ValueError("meter rate must be positive")
        self.rate_mbps = rate_mbps
        if burst_bytes is not None:
            if burst_bytes <= 0:
                raise ValueError("burst must be positive")
            self.burst_bytes = burst_bytes
            self._tokens = min(self._tokens, float(burst_bytes))
