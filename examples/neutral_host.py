#!/usr/bin/env python3
"""Neutral host: the franchised MNO-extension network (paper §4.3.2).

Micro-operators deploy AGWs + CBRS radios; customers of an incumbent MNO
roam onto this network.  The Federation Gateway terminates the 3GPP
interfaces (S6a auth, Gx policy) toward the MNO core, and - in
home-routed mode - user traffic is tunneled through the central GTP
aggregator to the MNO's P-GW, which applies billing in the MNO's own core.

Demonstrates:

- roaming attach for subscribers Magma has never heard of (FeG S6a);
- MNO policy fetched via Gx and enforced locally in each AGW;
- home-routed user plane through the GTP-A, metered at the MNO P-GW;
- the same micro-site also serving its *own* local subscribers
  (local breakout) side by side.

Run:  python examples/neutral_host.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.agw import AccessGateway, AgwConfig, SubscriberProfile
from repro.core.federation import DeploymentMode, FederationGateway
from repro.core.federation.gtp_aggregator import GtpAggregator
from repro.core.federation.mno_core import PartnerMnoCore
from repro.core.policy import rate_limited
from repro.lte import Enodeb, Ue, auth, make_imsi
from repro.net import Network, backhaul
from repro.sim import RngRegistry, Simulator
from repro.workloads.traffic import TrafficEngine

NUM_MICRO_SITES = 3
ROAMERS_PER_SITE = 2


def keys(index, op=b"neutral-host-op"):
    k = index.to_bytes(4, "big") * 4
    return k, auth.derive_opc(k, op)


def main():
    sim = Simulator()
    rng = RngRegistry(23)
    network = Network(sim, rng)

    # The incumbent MNO's core, the FeG in front of it, and the GTP-A.
    mno = PartnerMnoCore(sim, network, "mno", rng=rng)
    network.connect("feg", "mno", backhaul.fiber())
    feg = FederationGateway(sim, network, "feg", "mno")
    gtpa = GtpAggregator(sim, capacity_mbps=1000.0, mno_core=mno)

    # MNO subscribers who will roam onto the neutral host network.
    roamer_index = 100
    roamers_by_site = []
    for s in range(NUM_MICRO_SITES):
        site_roamers = []
        for _r in range(ROAMERS_PER_SITE):
            roamer_index += 1
            imsi = make_imsi(roamer_index)
            k, opc = keys(roamer_index, op=b"incumbent-mno-op!")
            mno.provision(imsi, k, opc,
                          policy=rate_limited(f"mno-tier-{s}", 20.0))
            site_roamers.append((imsi, k, opc))
        roamers_by_site.append(site_roamers)

    # Micro-operator sites: home-routed federation mode.
    sites = []
    for s in range(NUM_MICRO_SITES):
        agw_node = f"agw-micro{s}"
        network.connect(agw_node, "feg", backhaul.microwave())
        agw = AccessGateway(
            sim, network, agw_node,
            config=AgwConfig(deployment_mode=DeploymentMode.HOME_ROUTED,
                             feg_node="feg"),
            rng=rng.fork(agw_node))
        network.connect(f"enb-micro{s}", agw_node, backhaul.lan())
        enb = Enodeb(sim, network, f"enb-micro{s}", agw_node)
        enb.s1_setup()
        sites.append((agw, enb))
    sim.run(until=5.0)

    # Roamers attach: Magma has no record of them; auth vectors and policy
    # come from the MNO through the FeG.
    ues = []
    for (agw, enb), site_roamers in zip(sites, roamers_by_site):
        for imsi, k, opc in site_roamers:
            ue = Ue(sim, imsi, k, opc, enb)
            outcome = sim.run_until_triggered(ue.attach(),
                                              limit=sim.now + 120.0)
            assert outcome.success, outcome.cause
            ue.set_offered_rate(30.0)  # wants 30, MNO tier allows 20
            ues.append((agw, ue))
    sim.run(until=sim.now + 2.0)
    print(f"[t={sim.now:6.1f}s] {len(ues)} MNO roamers attached at "
          f"{NUM_MICRO_SITES} micro-sites "
          f"(FeG S6a requests: {feg.stats['auth_requests']}, "
          f"Gx: {feg.stats['policy_requests']})")

    sample_agw, sample_ue = ues[0]
    session = sample_agw.sessiond.session(sample_ue.imsi)
    print(f"[t={sim.now:6.1f}s] roamer session: home_routed="
          f"{session.home_routed}, MNO policy enforced locally at "
          f"{session.installed_rate_mbps:.0f} Mbps")

    # One micro-site also hosts a *local* subscriber with local breakout.
    local_agw, local_enb = sites[0]
    local_imsi = make_imsi(1)
    k, opc = keys(1)
    local_agw.subscriberdb.upsert(SubscriberProfile(imsi=local_imsi,
                                                    k=k, opc=opc))
    local_ue = Ue(sim, local_imsi, k, opc, local_enb)
    outcome = sim.run_until_triggered(local_ue.attach(),
                                      limit=sim.now + 120.0)
    sim.run(until=sim.now + 2.0)
    local_session = local_agw.sessiond.session(local_imsi)
    print(f"[t={sim.now:6.1f}s] local subscriber on the same AGW: "
          f"home_routed={local_session.home_routed} (local breakout)")

    # User plane: roamer traffic flows through the GTP-A to the MNO P-GW.
    engines = []
    gtpa.start_accounting(tick=1.0)
    for agw, enb in sites:
        engine = TrafficEngine(sim, agw, [enb], gtpa=gtpa)
        engine.start()
        engines.append(engine)
    sim.run(until=sim.now + 30.0)
    carried = gtpa.forward(duration=0.0)  # snapshot of admitted load
    print(f"[t={sim.now:6.1f}s] GTP-A carrying {carried:.0f} Mbps of "
          f"home-routed traffic "
          f"({gtpa.utilization() * 100:.0f}% of capacity)")
    pgw_mb = mno.pgw_total_bytes() / 1e6
    print(f"[t={sim.now:6.1f}s] MNO P-GW metered {pgw_mb:.0f} MB for its "
          f"own billing systems")
    print("neutral host scenario complete")


if __name__ == "__main__":
    main()
