#!/usr/bin/env python3
"""Rural ISP: the paper's motivating deployment (Figure 2 - Peru).

A small ISP runs three solar-powered LTE cell sites behind *satellite*
backhaul.  Subscribers are prepaid (online charging) with the paper's
canonical policy: full speed until a usage cap, then throttled.

Demonstrates:

- scale-down: three sites == three cheap AGWs + one cloud orchestrator;
- desired-state sync and prepaid policy over 300 ms / lossy backhaul;
- headless operation: a multi-hour backhaul outage does NOT take the
  network down - cached subscribers keep attaching (§3.2);
- per-site fault domains: one site crashing leaves the others serving.

Run:  python examples/rural_isp.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.agw import AgwConfig, SubscriberProfile
from repro.core.policy import MB, capped, prepaid
from repro.core.policy.ocs import OnlineChargingSystem
from repro.deploy import build, subscriber_keys
from repro.workloads.traffic import TrafficEngine

NUM_SITES = 3
SUBSCRIBERS_PER_SITE = 4


def main():
    ocs = OnlineChargingSystem(quota_bytes=1 * MB)
    # The paper's example policy: 10 Mbps until 5 MB, then 1 Mbps - plus a
    # prepaid tier whose usage draws down OCS quota grants (§3.4).
    d = build(num_ues=SUBSCRIBERS_PER_SITE, num_agws=NUM_SITES,
              backhaul="satellite", seed=7,
              config=AgwConfig(checkin_interval=10.0), ocs=ocs,
              policy=capped("village-basic", mbps=10.0, cap_bytes=5 * MB,
                            throttled_mbps=1.0))
    sim, network, orc = d.sim, d.network, d.orc
    orc.upsert_policy(prepaid("village-prepaid", mbps=10.0))
    for n, imsi in enumerate(d.imsis):
        ocs.provision(imsi, balance_bytes=50 * MB)
        if n % SUBSCRIBERS_PER_SITE == 0:
            # Each site's first subscriber is on the prepaid tier.
            k, opc = subscriber_keys(n + 1)
            orc.add_subscriber(SubscriberProfile(
                imsi=imsi, k=k, opc=opc, policy_id="village-prepaid"))
    sites = [(agw, enb, d.ues[s * SUBSCRIBERS_PER_SITE:
                              (s + 1) * SUBSCRIBERS_PER_SITE])
             for s, (agw, enb) in enumerate(zip(d.agws, d.enbs))]

    # Config crosses the satellite on first check-ins.
    sim.run(until=40.0)
    synced = [len(agw.subscriberdb) for agw, _e, _u in sites]
    print(f"[t={sim.now:6.1f}s] subscriberdb sizes per site: {synced} "
          f"(all {NUM_SITES * SUBSCRIBERS_PER_SITE} subscribers, "
          f"synced over satellite)")

    # Everyone attaches; traffic engines run per site.
    engines = []
    for agw, enb, ues in sites:
        for ue in ues:
            outcome = sim.run_until_triggered(ue.attach(),
                                              limit=sim.now + 120.0)
            assert outcome.success, outcome.cause
            ue.set_offered_rate(8.0)
        engine = TrafficEngine(sim, agw, [enb])
        engine.start()
        engines.append(engine)
    sim.run(until=sim.now + 5.0)
    print(f"[t={sim.now:6.1f}s] all "
          f"{NUM_SITES * SUBSCRIBERS_PER_SITE} subscribers attached")

    # Run until the caps start biting.
    sim.run(until=sim.now + 10.0)
    agw0 = sites[0][0]
    session = agw0.sessiond.session(sites[0][2][0].imsi)
    print(f"[t={sim.now:6.1f}s] first subscriber used "
          f"{session.bytes_dl / 1e6:.1f} MB, "
          f"rate now {session.installed_rate_mbps:.1f} Mbps "
          f"({'throttled' if session.installed_rate_mbps < 10 else 'full'})")

    # --- Headless operation: the satellite link dies for 10 minutes. ------
    network.set_node_up("orc", False)
    print(f"[t={sim.now:6.1f}s] *** satellite backhaul outage begins ***")
    sim.run(until=sim.now + 60.0)
    # A subscriber reboots their router mid-outage and re-attaches.
    ue = sites[1][2][0]
    ue.detach()
    sim.run(until=sim.now + 2.0)
    outcome = sim.run_until_triggered(ue.attach(), limit=sim.now + 120.0)
    print(f"[t={sim.now:6.1f}s] re-attach during outage: "
          f"success={outcome.success} (cached subscriber, headless AGW)")
    sim.run(until=sim.now + 540.0)
    network.set_node_up("orc", True)
    print(f"[t={sim.now:6.1f}s] *** backhaul restored ***")

    # --- Small fault domains: site 2 loses power overnight. ----------------
    victim_agw, _enb, victim_ues = sites[2]
    victim_agw.crash()
    sim.run(until=sim.now + 5.0)
    others_serving = sum(agw.sessiond.session_count()
                         for agw, _e, _u in sites[:2])
    print(f"[t={sim.now:6.1f}s] site 2 down; sites 0-1 still serving "
          f"{others_serving} sessions")
    restored = victim_agw.recover()
    print(f"[t={sim.now:6.1f}s] site 2 battery back: "
          f"{restored} sessions restored from checkpoint")

    # Billing view: metering/accounting in Magma, charging in the OCS.
    total_metered = sum(s.bytes_dl + s.bytes_ul
                        for agw, _e, _u in sites
                        for s in agw.sessiond.active_sessions())
    total_charged = sum(ocs.account(ue.imsi).charged_bytes
                        for _a, _e, ues in sites for ue in ues)
    print(f"[t={sim.now:6.1f}s] metered {total_metered / 1e6:.1f} MB in "
          f"active sessions; OCS charged {total_charged / 1e6:.1f} MB to "
          f"prepaid users over {ocs.stats['grants']} quota grants")
    print("rural ISP scenario complete")


if __name__ == "__main__":
    main()
