"""GTP Aggregator (GTP-A): the home-routed user-plane concentrator (§3.6).

In home-roaming mode, user traffic from thousands of distributed AGWs is
tunneled to one GTP-A (a single bare-metal box in the FreedomFi deployment:
8-core Xeon, 2x10G NICs) which connects to the partner MNO's P-GW.  Being a
centralized, on-path device, its capacity bounds the federated network's
home-routed throughput - the scaling implication the paper notes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...sim.fairshare import max_min_share
from ...sim.kernel import Simulator

DEFAULT_GTPA_CAPACITY_MBPS = 18_000.0  # ~2x10G NICs, minus overhead


class GtpAggregator:
    """Fluid-mode aggregation point for home-routed traffic."""

    def __init__(self, sim: Simulator,
                 capacity_mbps: float = DEFAULT_GTPA_CAPACITY_MBPS,
                 mno_core: Optional["PartnerMnoCore"] = None):
        if capacity_mbps <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity_mbps = capacity_mbps
        self.mno_core = mno_core
        self._offers: Dict[Tuple[str, str], float] = {}  # (agw, imsi) -> mbps
        self.stats = {"bytes_forwarded": 0, "peak_offered_mbps": 0.0}

    def offer(self, agw_id: str, imsi: str, mbps: float) -> None:
        """Register the offered home-routed rate for one session this tick."""
        if mbps < 0:
            raise ValueError("offered rate must be >= 0")
        key = (agw_id, imsi)
        if mbps == 0.0:
            self._offers.pop(key, None)
        else:
            self._offers[key] = mbps

    def allocate(self) -> Dict[Tuple[str, str], float]:
        """Admitted per-session rates under the GTP-A capacity."""
        offered = {f"{a}|{i}": r for (a, i), r in self._offers.items()}
        self.stats["peak_offered_mbps"] = max(
            self.stats["peak_offered_mbps"], sum(offered.values()))
        shared = max_min_share(offered, self.capacity_mbps)
        result = {}
        for key, rate in shared.items():
            agw_id, imsi = key.split("|", 1)
            result[(agw_id, imsi)] = rate
        return result

    def admitted(self, agw_id: str, imsi: str) -> float:
        return self.allocate().get((agw_id, imsi), 0.0)

    def forward(self, duration: float) -> float:
        """Account one tick of forwarding; returns total Mbps carried."""
        allocation = self.allocate()
        total_mbps = sum(allocation.values())
        for (agw_id, imsi), mbps in allocation.items():
            used = int(mbps * 1e6 / 8.0 * duration)
            self.stats["bytes_forwarded"] += used
            if self.mno_core is not None:
                self.mno_core.pgw_record_usage(imsi, used)
        return total_mbps

    def utilization(self) -> float:
        return min(1.0, sum(self._offers.values()) / self.capacity_mbps)

    def start_accounting(self, tick: float = 1.0) -> None:
        """Meter forwarded traffic once per tick (call exactly once; the
        per-AGW traffic engines only register offers)."""
        if tick <= 0:
            raise ValueError("tick must be positive")
        if getattr(self, "_accounting", False):
            return
        self._accounting = True

        def loop():
            while True:
                yield self.sim.timeout(tick)
                self.forward(tick)

        self.sim.spawn(loop(), name="gtpa-accounting:gtp-a")
