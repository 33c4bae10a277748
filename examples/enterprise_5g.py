#!/usr/bin/env python3
"""Enterprise private 5G: the paper's forward-looking use case (§6).

A factory runs a private 5G network on one AGW: handheld scanners and AGVs
(5G UEs with PDU sessions, QoS-marked), an IoT sensor fleet (attach-heavy
LTE devices), and a guest WiFi SSID - three access technologies on the
same core, with different policies each.

Demonstrates:

- 5G registration + PDU session establishment through the NGAP frontend;
- QCI-based QoS marking for the latency-sensitive AGV traffic;
- the IoT workload pattern (§4.2's control-plane-heavy case);
- one subscriber database and one session table across 5G/LTE/WiFi.

Run:  python examples/enterprise_5g.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.agw import AccessGateway, SubscriberProfile
from repro.core.policy import PolicyRule, rate_limited
from repro.fiveg import Gnb, Ue5g
from repro.lte import Enodeb, Ue, auth, make_imsi
from repro.net import Network, backhaul
from repro.sim import RngRegistry, Simulator
from repro.workloads.iot import IotWorkload

NUM_AGVS = 4
NUM_SENSORS = 10


def keys(index):
    k = index.to_bytes(4, "big") * 4
    return k, auth.derive_opc(k, b"factory-operator")


def main():
    sim = Simulator()
    rng = RngRegistry(77)
    network = Network(sim, rng)
    agw = AccessGateway(sim, network, "agw-factory", rng=rng)

    # Policies: AGVs get a guaranteed low-latency class (QCI 1 -> DSCP EF);
    # sensors get a trickle; guest WiFi is rate-limited.
    agw.policydb.upsert(PolicyRule(policy_id="agv", rate_limit_mbps=20.0,
                                   qci=1))
    agw.policydb.upsert(rate_limited("sensor", 0.5))
    agw.policydb.upsert(rate_limited("guest-wifi", 5.0))

    # RAN: one gNB (5G), one eNodeB (LTE sensors), one WiFi AP.
    network.connect("gnb-factory", "agw-factory", backhaul.lan())
    gnb = Gnb(sim, network, "gnb-factory", "agw-factory")
    network.connect("enb-factory", "agw-factory", backhaul.lan())
    enb = Enodeb(sim, network, "enb-factory", "agw-factory")
    network.connect("ap-factory", "agw-factory", backhaul.lan())
    from repro.wifi import WifiAp
    ap = WifiAp(sim, network, "ap-factory", "agw-factory")

    gnb.ng_setup()
    enb.s1_setup()
    sim.run(until=2.0)

    # Provision: AGVs on 5G, sensors on LTE, one guest on WiFi.
    index = 1
    agvs = []
    for _ in range(NUM_AGVS):
        imsi = make_imsi(index)
        k, opc = keys(index)
        index += 1
        agw.subscriberdb.upsert(SubscriberProfile(imsi=imsi, k=k, opc=opc,
                                                  policy_id="agv"))
        agvs.append(Ue5g(sim, imsi, k, opc, gnb))
    sensors = []
    for _ in range(NUM_SENSORS):
        imsi = make_imsi(index)
        k, opc = keys(index)
        index += 1
        agw.subscriberdb.upsert(SubscriberProfile(imsi=imsi, k=k, opc=opc,
                                                  policy_id="sensor"))
        sensors.append(Ue(sim, imsi, k, opc, enb))
    guest_imsi = make_imsi(index)
    k, opc = keys(index)
    agw.subscriberdb.upsert(SubscriberProfile(
        imsi=guest_imsi, k=k, opc=opc, policy_id="guest-wifi",
        wifi_secret="factory-guest-pass"))

    # 5G AGVs: registration, then PDU sessions.
    for agv in agvs:
        ok = sim.run_until_triggered(agv.register(), limit=sim.now + 60.0)
        assert ok
        ok = sim.run_until_triggered(agv.establish_pdu_session(),
                                     limit=sim.now + 60.0)
        assert ok
    sim.run(until=sim.now + 2.0)
    print(f"[t={sim.now:6.1f}s] {NUM_AGVS} AGVs registered over 5G with "
          f"PDU sessions (QCI 1, EF-marked)")

    # Prove the QoS marking end to end.
    from repro.dataplane import ip_packet
    delivered = []
    agw.pipelined.set_port_delivery("ran", delivered.append)
    agw.pipelined.switch.inject(
        ip_packet("10.0.9.9", agvs[0].ip_address), "internet")
    print(f"[t={sim.now:6.1f}s] AGV downlink packet DSCP="
          f"{delivered[0].inner_ip().dscp} (46 = expedited forwarding)")

    # IoT sensors: attach -> report -> detach cycles over LTE.
    iot = IotWorkload(sim, sensors, report_interval=30.0,
                      sessiond=agw.sessiond, rng=rng)
    iot.start()
    sim.run(until=sim.now + 120.0)
    iot.stop()
    print(f"[t={sim.now:6.1f}s] IoT fleet: {iot.stats.attaches} cycles, "
          f"{iot.success_rate() * 100:.0f}% success, "
          f"{iot.stats.bytes_sent:,} bytes of telemetry")

    # Guest WiFi through the same core.
    done = ap.connect(guest_imsi, "factory-guest-pass")
    state = sim.run_until_triggered(done, limit=sim.now + 60.0)
    print(f"[t={sim.now:6.1f}s] WiFi guest connected: ip={state.ip}, "
          f"shaped to "
          f"{agw.admitted_downlink(guest_imsi, 100.0):.0f} Mbps")

    # One core, three technologies.
    frontends = {agw.directoryd.lookup(imsi).frontend
                 for imsi in [agvs[0].imsi, guest_imsi]}
    print(f"[t={sim.now:6.1f}s] sessions: {agw.sessiond.session_count()}, "
          f"frontends in use: {sorted(frontends)} + s1ap (IoT, transient)")
    print("enterprise 5G scenario complete")


if __name__ == "__main__":
    main()
