#!/usr/bin/env python3
"""AccessParks: LTE backhaul for WiFi hotspots (paper §4.3.1, Figure 10).

The deployment in the paper's Figure 10: end users connect to WiFi access
points through a captive portal; the APs are backhauled to the Internet by
*fixed LTE modems* that are the UEs of a Magma network.  Network policy in
Magma is trivially "unrestricted" - the per-user policy lives in the
pre-existing captive portal and prepaid voucher system at the WiFi layer.

Demonstrates:

- LTE UEs as infrastructure (fixed wireless modems), not phones;
- the unlimited policy (§4.3.1: "all UEs simply have unrestricted access");
- captive-portal vouchers doing the per-user policy work;
- hourly usage reporting like Fig. 9's operational data.

Run:  python examples/accessparks_backhaul.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.deploy import build
from repro.wifi.captive_portal import CaptivePortal
from repro.workloads.traffic import TrafficEngine

NUM_SITES = 2
APS_PER_SITE = 3
GUESTS_PER_AP = 4


def main():
    # Magma side: cell sites whose "UEs" are the APs' fixed LTE modems, with
    # unrestricted access: the default (unlimited) policy.
    d = build(num_ues=APS_PER_SITE, num_agws=NUM_SITES,
              backhaul="microwave", seed=11)
    sim = d.sim
    portal = CaptivePortal(clock=lambda: sim.now)
    sites = [(agw, enb, d.ues[s * APS_PER_SITE:(s + 1) * APS_PER_SITE])
             for s, (agw, enb) in enumerate(zip(d.agws, d.enbs))]
    sim.run(until=70.0)  # first check-in syncs subscribers

    # Bring the AP modems online.
    for agw, enb, modems in sites:
        for modem in modems:
            outcome = sim.run_until_triggered(modem.attach(),
                                              limit=sim.now + 120.0)
            assert outcome.success, outcome.cause
    total_aps = sum(len(m) for _a, _e, m in sites)
    print(f"[t={sim.now:6.1f}s] {total_aps} AP backhaul modems attached "
          f"across {NUM_SITES} park sites (policy: unrestricted)")

    # WiFi side: guests buy vouchers and use the hotspots.  Each guest's
    # browsing adds offered load on their AP's backhaul modem.
    guest_id = 0
    for agw, enb, modems in sites:
        for modem in modems:
            ap_load = 0.0
            for _g in range(GUESTS_PER_AP):
                guest_id += 1
                code = f"DAYPASS-{guest_id}"
                portal.issue_voucher(code,
                                     data_allowance_bytes=500_000_000,
                                     time_allowance_s=24 * 3600.0)
                portal.login(f"guest-{guest_id}", code)
                ap_load += 1.2  # Mbps of guest traffic
            modem.set_offered_rate(ap_load)
    print(f"[t={sim.now:6.1f}s] {portal.active_sessions()} guests logged in "
          f"through the captive portal")

    # Run an "hour" of usage and report like the Fig. 9 operational data.
    engines = []
    for agw, enb, _m in sites:
        engine = TrafficEngine(sim, agw, [enb])
        engine.start()
        engines.append(engine)
    sim.run(until=sim.now + 60.0)
    for (agw, _enb, modems), engine in zip(sites, engines):
        print(f"[t={sim.now:6.1f}s] {agw.node}: "
              f"{agw.sessiond.session_count()} backhaul sessions, "
              f"{engine.last_achieved_mbps:.1f} Mbps aggregate")

    # A guest exhausts their voucher: the portal (not Magma) cuts them off.
    portal.record_usage("guest-1", 600_000_000)
    allowed = portal.is_allowed("guest-1")
    print(f"[t={sim.now:6.1f}s] guest-1 after exceeding allowance: "
          f"allowed={allowed} (enforced by the WiFi-layer portal)")

    # The LTE layer never saw any of that - its job is pure backhaul.
    total_bytes = sum(s.bytes_dl for agw, _e, _m in sites
                      for s in agw.sessiond.active_sessions())
    print(f"[t={sim.now:6.1f}s] LTE backhaul carried "
          f"{total_bytes / 1e6:.0f} MB this hour, policy-free")
    print("AccessParks scenario complete")


if __name__ == "__main__":
    main()
