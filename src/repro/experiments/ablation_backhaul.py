"""Ablation: backhaul quality vs control-plane experience (§3.1).

Because Magma terminates the radio protocols *at the cell site*, the UE's
attach dialogue never crosses the backhaul - attach latency is the same on
fiber, microwave, or satellite.  In the baseline architecture every NAS
round trip traverses the backhaul to the remote core, so attach latency
balloons with RTT and suffers under loss.

Same UEs, same eNodeB model, same workload; only where the core sits
differs.
"""

from __future__ import annotations

from typing import List, Tuple

from ..baseline.epc import MonolithicEpc
from ..deploy import build
from ..lte import Enodeb
from ..lte.gtp import GtpcEndpoint
from ..net import Network, backhaul
from ..record import record
from ..sim import RngRegistry, Simulator, median
from .common import epc_ues, format_table

PROFILES = ("fiber", "microwave", "satellite")


@record
class BackhaulPoint:
    profile: str
    magma_median_latency: float
    magma_csr: float
    baseline_median_latency: float
    baseline_csr: float


@record
class BackhaulResult:
    points: List[BackhaulPoint]
    num_ues: int

    def rows(self) -> List[List[object]]:
        return [[p.profile,
                 f"{p.magma_median_latency:.2f}", f"{p.magma_csr * 100:.0f}",
                 f"{p.baseline_median_latency:.2f}",
                 f"{p.baseline_csr * 100:.0f}"]
                for p in self.points]

    def render(self) -> str:
        header = (f"Backhaul ablation ({self.num_ues} attaches per cell): "
                  f"attach latency and CSR by backhaul quality\n")
        return header + format_table(
            ["backhaul", "magma_latency_s", "magma_csr_pct",
             "baseline_latency_s", "baseline_csr_pct"], self.rows())

    def point(self, profile: str) -> BackhaulPoint:
        for p in self.points:
            if p.profile == profile:
                return p
        raise KeyError(profile)


def _attach_each(sim, ues) -> Tuple[float, float]:
    """Attach the UEs one by one; returns (median latency, CSR)."""
    latencies = []
    for ue in ues:
        outcome = sim.run_until_triggered(ue.attach(), limit=sim.now + 120.0)
        if outcome.success:
            latencies.append(outcome.latency)
    csr = len(latencies) / len(ues)
    return (median(latencies) if latencies else float("inf")), csr


def _magma(profile: str, num_ues: int, seed: int) -> Tuple[float, float]:
    """The AGW at the site; only its check-ins cross the backhaul."""
    d = build(num_ues=num_ues, backhaul=profile, seed=seed)
    d.run_until_synced()
    return _attach_each(d.sim, d.ues)


def _baseline(profile: str, num_ues: int,
              seed: int) -> Tuple[float, float]:
    """The core across the backhaul from the eNodeB."""
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    epc = MonolithicEpc(sim, network, "core", rng=rng)
    network.connect("enb-1", "core", backhaul.by_name(profile))
    GtpcEndpoint(sim, network, "enb-1")           # answers GTP echoes
    enb = Enodeb(sim, network, "enb-1", "core")
    ues = epc_ues(sim, epc, enb, num_ues)
    enb.s1_setup()
    sim.run(until=10.0)
    if not enb.s1_ready:
        return float("inf"), 0.0
    return _attach_each(sim, ues)


def run_backhaul_ablation(num_ues: int = 10, seed: int = 0) -> BackhaulResult:
    points = []
    for profile in PROFILES:
        magma_latency, magma_csr = _magma(profile, num_ues, seed)
        base_latency, base_csr = _baseline(profile, num_ues, seed)
        points.append(BackhaulPoint(
            profile=profile,
            magma_median_latency=magma_latency, magma_csr=magma_csr,
            baseline_median_latency=base_latency, baseline_csr=base_csr))
    return BackhaulResult(points=points, num_ues=num_ues)
