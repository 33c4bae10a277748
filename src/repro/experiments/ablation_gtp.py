"""Ablation: local GTP termination vs GTP over the backhaul (§3.1).

Two architectures face the same backhaul outage:

- **Baseline**: the monolithic EPC sits across the backhaul.  The GTP path
  between the cell site and the core fails during the outage; the core
  tears down every session at the site, and UEs with fragile basebands
  wedge until power-cycled ("a confusing lack of coverage").
- **Magma**: GTP terminates inside the on-site AGW; only the AGW-to-
  orchestrator link (gRPC-style, retrying) crosses the backhaul.  Sessions
  and UEs never see a GTP failure; the AGW merely runs headless.
"""

from __future__ import annotations

from typing import List

from ..baseline.epc import MonolithicEpc
from ..deploy import build
from ..lte import Enodeb, UeConfig, UeState
from ..lte.gtp import GtpcEndpoint
from ..net import Network, backhaul
from ..record import record
from ..sim import RngRegistry, Simulator
from .common import epc_ues, format_table


@record
class GtpAblationResult:
    num_ues: int
    fragile_fraction: float
    outage_seconds: float
    baseline_sessions_lost: int
    baseline_stuck_ues: int
    magma_sessions_lost: int
    magma_stuck_ues: int

    def rows(self) -> List[List[object]]:
        return [
            ["baseline EPC (GTP over backhaul)", self.baseline_sessions_lost,
             self.baseline_stuck_ues],
            ["Magma (GTP terminated at AGW)", self.magma_sessions_lost,
             self.magma_stuck_ues],
        ]

    def render(self) -> str:
        header = (f"GTP-termination ablation: {self.num_ues} UEs "
                  f"({self.fragile_fraction * 100:.0f}% fragile basebands), "
                  f"{self.outage_seconds:.0f}s backhaul outage\n")
        return header + format_table(
            ["architecture", "sessions_lost", "ues_stuck"], self.rows())


def _attach_all(sim, ues, limit=600.0):
    for ue in ues:
        done = ue.attach()
        outcome = sim.run_until_triggered(done, limit=sim.now + limit)
        if not outcome.success:
            raise RuntimeError(f"setup attach failed: {outcome.cause}")
    sim.run(until=sim.now + 3.0)


def _outage(sim, network, node, agw, ues, seconds):
    """Take ``node`` off the network for ``seconds`` and let things settle;
    returns ``(sessions lost, UEs stuck)``."""
    sessions_before = agw.sessiond.session_count()
    network.set_node_up(node, False)
    sim.run(until=sim.now + seconds)
    network.set_node_up(node, True)
    sim.run(until=sim.now + 30.0)
    return (sessions_before - agw.sessiond.session_count(),
            sum(1 for ue in ues if ue.state == UeState.STUCK))


def _make_fragile(ues, count: int) -> None:
    """Give the first ``count`` UEs a baseband that wedges on a GTP
    failure."""
    for ue in ues[:count]:
        ue.config = UeConfig(fragile_baseband=True)


def run_gtp_ablation(num_ues: int = 12, fragile_fraction: float = 0.5,
                     outage_seconds: float = 60.0,
                     seed: int = 0) -> GtpAblationResult:
    fragile_count = int(num_ues * fragile_fraction)

    # ---- Baseline: EPC across the backhaul -----------------------------------
    sim_b = Simulator()
    net_b = Network(sim_b, RngRegistry(seed))
    epc = MonolithicEpc(sim_b, net_b, "epc", rng=RngRegistry(seed),
                        gtp_echo_interval=5.0)
    net_b.connect("site", "epc", backhaul.satellite())
    enb_b = Enodeb(sim_b, net_b, "site", "epc")
    enb_gtp = GtpcEndpoint(sim_b, net_b, "site")
    enb_gtp.set_path_failure_callback(
        lambda peer: enb_b.s1_path_failure("gtp path failure"))
    enb_gtp.start_path_monitor("epc", interval=5.0)
    ues_b = epc_ues(sim_b, epc, enb_b, num_ues)
    _make_fragile(ues_b, fragile_count)
    enb_b.s1_setup()
    sim_b.run(until=sim_b.now + 5.0)
    _attach_all(sim_b, ues_b)
    baseline_lost, baseline_stuck = _outage(sim_b, net_b, "site", epc.agw,
                                            ues_b, outage_seconds)

    # ---- Magma: AGW at the site, orchestrator across the backhaul -------------
    d = build(num_ues=num_ues, backhaul="satellite", seed=seed)
    _make_fragile(d.ues, fragile_count)
    d.run_until_synced()
    _attach_all(d.sim, d.ues)
    # The same outage: the backhaul (AGW <-> orchestrator) goes dark.
    magma_lost, magma_stuck = _outage(d.sim, d.network, "orc", d.agw, d.ues,
                                      outage_seconds)

    return GtpAblationResult(
        num_ues=num_ues, fragile_fraction=fragile_fraction,
        outage_seconds=outage_seconds,
        baseline_sessions_lost=baseline_lost,
        baseline_stuck_ues=baseline_stuck,
        magma_sessions_lost=magma_lost,
        magma_stuck_ues=magma_stuck)
