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

from dataclasses import dataclass
from typing import List, Tuple

from ..baseline import MonolithicEpc
from ..core.agw import AccessGateway, SubscriberProfile
from ..deploy import subscriber_keys
from ..lte import Enodeb, Ue, make_imsi
from ..lte.gtp import GtpcEndpoint
from ..net import Network, backhaul
from ..sim import RngRegistry, Simulator, median
from .common import format_table

PROFILES = ("fiber", "microwave", "satellite")


@dataclass
class BackhaulPoint:
    profile: str
    magma_median_latency: float
    magma_csr: float
    baseline_median_latency: float
    baseline_csr: float


@dataclass
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


def _measure(architecture: str, profile: str, num_ues: int,
             seed: int) -> Tuple[float, float]:
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    link = backhaul.by_name(profile)
    if architecture == "magma":
        agw = AccessGateway(sim, network, "core", rng=rng)
        network.add_node("orc-far")
        network.connect("core", "orc-far", link)      # backhaul: northbound
        network.connect("enb-1", "core", backhaul.lan())
        agw.start()
    else:
        agw = MonolithicEpc(sim, network, "core", rng=rng).agw
        network.connect("enb-1", "core", link)        # backhaul: to the core
        GtpcEndpoint(sim, network, "enb-1")           # answers GTP echoes
    enb = Enodeb(sim, network, "enb-1", "core")
    ues = []
    for i in range(num_ues):
        imsi = make_imsi(i + 1)
        k, opc = subscriber_keys(i + 1)
        agw.subscriberdb.upsert(SubscriberProfile(imsi=imsi, k=k, opc=opc))
        ues.append(Ue(sim, imsi, k, opc, enb))
    enb.s1_setup()
    sim.run(until=10.0)
    if not enb.s1_ready:
        return float("inf"), 0.0
    latencies = []
    successes = 0
    for ue in ues:
        done = ue.attach()
        outcome = sim.run_until_triggered(done, limit=sim.now + 120.0)
        if outcome.success:
            successes += 1
            latencies.append(outcome.latency)
    csr = successes / num_ues
    return (median(latencies) if latencies else float("inf")), csr


def run_backhaul_ablation(num_ues: int = 10, seed: int = 0) -> BackhaulResult:
    points = []
    for profile in PROFILES:
        magma_latency, magma_csr = _measure("magma", profile, num_ues, seed)
        base_latency, base_csr = _measure("baseline", profile, num_ues, seed)
        points.append(BackhaulPoint(
            profile=profile,
            magma_median_latency=magma_latency, magma_csr=magma_csr,
            baseline_median_latency=base_latency, baseline_csr=base_csr))
    return BackhaulResult(points=points, num_ues=num_ues)
