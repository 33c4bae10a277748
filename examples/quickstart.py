#!/usr/bin/env python3
"""Quickstart: a minimal Magma network, end to end.

Builds the smallest deployment the paper describes (§3.2): one
orchestrator, one access gateway, one eNodeB, one subscriber.  Walks
through provisioning, desired-state config sync, a full LTE attach
(EPS-AKA and all), traffic with policy enforcement, and detach with a
charging record.

Run:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.agw import AccessGateway, AgwConfig, SubscriberProfile
from repro.core.orchestrator import Orchestrator
from repro.core.policy import rate_limited
from repro.lte import Enodeb, Ue, auth, make_imsi
from repro.net import Network, backhaul
from repro.sim import RngRegistry, Simulator
from repro.workloads.traffic import TrafficEngine


def main():
    sim = Simulator()
    rng = RngRegistry(42)
    network = Network(sim, rng)

    # 1. The central controller, and an AGW reachable over microwave
    #    backhaul (Magma does not assume fiber).
    orc = Orchestrator(sim, network, "orc")
    network.connect("agw-1", "orc", backhaul.microwave())
    agw = AccessGateway(sim, network, "agw-1",
                        config=AgwConfig(checkin_interval=5.0),
                        orchestrator_node="orc", rng=rng)

    # 2. A cell site: one eNodeB on the AGW's LAN.
    network.connect("enb-1", "agw-1", backhaul.lan())
    enb = Enodeb(sim, network, "enb-1", "agw-1")

    # 3. Provision a subscriber at the orchestrator (the only place config
    #    is ever written), with a 10 Mbps rate-limit policy.
    imsi = make_imsi(1)
    k = bytes(range(16))
    opc = auth.derive_opc(k, b"example-operator")
    orc.upsert_policy(rate_limited("bronze", 10.0))
    orc.add_subscriber(SubscriberProfile(imsi=imsi, k=k, opc=opc,
                                         policy_id="bronze"))

    # 4. Bring everything up; the AGW pulls config on its first check-in.
    agw.start()
    enb.s1_setup()
    sim.run(until=12.0)
    print(f"[t={sim.now:5.1f}s] AGW synced {len(agw.subscriberdb)} "
          f"subscriber(s) from the orchestrator")

    # 5. The UE attaches: NAS attach -> EPS-AKA -> security mode ->
    #    session -> data-plane rules, all through the real state machines.
    ue = Ue(sim, imsi, k, opc, enb)
    outcome = sim.run_until_triggered(ue.attach(), limit=60.0)
    print(f"[t={sim.now:5.1f}s] attach: success={outcome.success} "
          f"latency={outcome.latency:.2f}s ip={ue.ip_address}")
    sim.run(until=sim.now + 2.0)

    session = agw.sessiond.session(imsi)
    print(f"[t={sim.now:5.1f}s] session {session.session_id}: "
          f"policy={session.policy_id} agw_teid={session.agw_teid:#x} "
          f"enb_teid={session.enb_teid:#x}")

    # 6. Traffic: the UE asks for 50 Mbps; the bronze policy shapes to 10.
    ue.set_offered_rate(50.0)
    engine = TrafficEngine(sim, agw, [enb])
    engine.start()
    sim.run(until=sim.now + 10.0)
    print(f"[t={sim.now:5.1f}s] offered 50.0 Mbps, achieved "
          f"{engine.last_achieved_mbps:.1f} Mbps (policy-limited)")

    # 7. Detach: the session closes and a charging record is written.
    ue.detach()
    sim.run(until=sim.now + 2.0)
    record = agw.accounting.records()[0]
    print(f"[t={sim.now:5.1f}s] detached; CDR: {record.total_bytes:,} bytes "
          f"over {record.duration:.0f}s")

    # 8. The orchestrator saw it all through metrics.
    sim.run(until=sim.now + 10.0)
    sample = orc.metricsd.latest("attach_accepted", {"gateway_id": "agw-1"})
    print(f"[t={sim.now:5.1f}s] orchestrator metric attach_accepted="
          f"{sample.value:.0f} for agw-1")
    print("quickstart complete")


if __name__ == "__main__":
    main()
