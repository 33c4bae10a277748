"""Ablation: small fault domains (per-AGW) vs one monolithic core (§3.3).

The same network - M cell sites, N UEs per site - built both ways.  One
random core element fails.  In the Magma build that is one AGW: only its
site's UEs lose service, and checkpoint restore brings them back.  In the
baseline build it is the EPC: every UE in the network loses service.
"""

from __future__ import annotations

from typing import List

from ..baseline.epc import MonolithicEpc
from ..core.agw import AccessGateway, SubscriberProfile
from ..deploy import build, subscriber_keys
from ..lte import Enodeb, Ue, make_imsi
from ..net import Network, backhaul
from ..record import record
from ..sim import RngRegistry, Simulator
from .common import format_table


@record
class FaultDomainResult:
    num_sites: int
    ues_per_site: int
    magma_affected_fraction: float
    baseline_affected_fraction: float
    magma_sessions_restored: int

    def rows(self) -> List[List[object]]:
        return [
            ["Magma (one AGW per site)",
             f"{self.magma_affected_fraction * 100:.0f}%",
             self.magma_sessions_restored],
            ["baseline (one EPC)",
             f"{self.baseline_affected_fraction * 100:.0f}%", "n/a"],
        ]

    def render(self) -> str:
        header = (f"Fault-domain ablation: {self.num_sites} sites x "
                  f"{self.ues_per_site} UEs, one core element fails\n")
        return header + format_table(
            ["architecture", "users_affected", "sessions_restored"],
            self.rows())


def _serving(agw: AccessGateway, imsis) -> int:
    if agw.crashed:
        return 0
    return sum(1 for imsi in imsis if agw.sessiond.session(imsi) is not None)


def _attach_site(sim, agw: AccessGateway, enb, first: int,
                 count: int) -> List[str]:
    """Provision and attach ``count`` UEs at ``enb``, numbered from
    ``first``; returns their IMSIs."""
    imsis = []
    for index in range(first, first + count):
        imsi = make_imsi(index)
        k, opc = subscriber_keys(index)
        agw.subscriberdb.upsert(SubscriberProfile(imsi=imsi, k=k, opc=opc))
        ue = Ue(sim, imsi, k, opc, enb)
        outcome = sim.run_until_triggered(ue.attach(), limit=sim.now + 120)
        if not outcome.success:
            raise RuntimeError(f"setup attach failed: {outcome.cause}")
        imsis.append(imsi)
    return imsis


def run_fault_domain_ablation(num_sites: int = 4, ues_per_site: int = 5,
                              seed: int = 0) -> FaultDomainResult:
    total_ues = num_sites * ues_per_site

    # ---- Magma: one AGW per site ------------------------------------------------
    site = build(num_ues=ues_per_site, num_agws=num_sites, seed=seed)
    for ue in site.ues:
        outcome = site.run_attach(ue)
        if not outcome.success:
            raise RuntimeError(f"setup attach failed: {outcome.cause}")
    site.sim.run(until=site.sim.now + 15.0)  # settle + checkpoint
    # Fail one AGW.
    victim = site.agw
    victim.crash()
    serving_after = sum(_serving(agw, site.imsis) for agw in site.agws)
    magma_affected = (total_ues - serving_after) / total_ues
    restored = victim.recover()

    # ---- Baseline: one EPC for all sites ------------------------------------------
    sim_b = Simulator()
    net_b = Network(sim_b, RngRegistry(seed))
    epc = MonolithicEpc(sim_b, net_b, "epc", rng=RngRegistry(seed))
    all_imsis_b: List[str] = []
    for s in range(num_sites):
        net_b.connect(f"enb-{s}", "epc", backhaul.fiber())
        enb = Enodeb(sim_b, net_b, f"enb-{s}", "epc")
        enb.s1_setup()
        sim_b.run(until=sim_b.now + 1.0)
        all_imsis_b += _attach_site(sim_b, epc.agw, enb,
                                    1 + s * ues_per_site, ues_per_site)
    sim_b.run(until=sim_b.now + 5.0)
    epc.crash()
    serving_after_b = _serving(epc.agw, all_imsis_b)
    baseline_affected = (total_ues - serving_after_b) / total_ues

    return FaultDomainResult(
        num_sites=num_sites, ues_per_site=ues_per_site,
        magma_affected_fraction=magma_affected,
        baseline_affected_fraction=baseline_affected,
        magma_sessions_restored=restored)
