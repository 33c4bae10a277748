"""A usage cap is per-AGW runtime state: a UE that moves AGW starts afresh.

Enforcement state (bytes against the cap) lives with the session on one
AGW (§3.4), and no AGW-to-AGW context transfer exists, so a subscriber who
re-attaches through another AGW gets a fresh cap there: the double
allowance the paper bounds and accepts as a business decision.
"""

import pytest

from repro.core.agw import AccessGateway, AgwConfig, SubscriberProfile
from repro.core.policy import MB, capped
from repro.deploy import subscriber_keys
from repro.lte import Enodeb, Ue, UeState, make_imsi
from repro.net import Network, backhaul
from repro.sim import RngRegistry, Simulator


def two_agw_network(policy=None, seed=1):
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    agws = []
    enbs = []
    for name in ("agw-a", "agw-b"):
        block = "10.10.0.0/24" if name == "agw-a" else "10.20.0.0/24"
        agw = AccessGateway(sim, network, name,
                            config=AgwConfig(ip_block=block),
                            rng=rng.fork(name))
        enb_id = f"enb-{name}"
        network.connect(enb_id, name, backhaul.lan())
        enbs.append(Enodeb(sim, network, enb_id, name))
        agws.append(agw)
    imsi = make_imsi(1)
    k, opc = subscriber_keys(1)
    for agw in agws:
        if policy is not None:
            agw.policydb.upsert(policy)
        agw.subscriberdb.upsert(SubscriberProfile(
            imsi=imsi, k=k, opc=opc,
            policy_id=policy.policy_id if policy else "default"))
    for enb in enbs:
        enb.s1_setup()
    sim.run(until=1.0)
    ue = Ue(sim, imsi, k, opc, enbs[0])
    return sim, network, agws, enbs, ue


def test_cap_resets_when_the_ue_moves_to_another_agw():
    """Moving AGW gives the §3.4 double allowance."""
    policy = capped("cap", mbps=10.0, cap_bytes=5 * MB, throttled_mbps=1.0)
    sim, network, agws, enbs, ue = two_agw_network(policy=policy)
    done = ue.attach()
    assert sim.run_until_triggered(done, limit=60.0).success
    sim.run(until=sim.now + 2.0)
    agws[0].sessiond.record_usage(ue.imsi, dl_bytes=4 * MB, ul_bytes=0)
    # The strategic move: re-attach through the other AGW's radio.
    ue.state = UeState.DEREGISTERED
    ue.enb.rrc_release(ue)
    ue.enb = enbs[1]
    attach = ue.attach()
    assert sim.run_until_triggered(attach, limit=sim.now + 60.0).success
    sim.run(until=sim.now + 2.0)
    agws[1].sessiond.record_usage(ue.imsi, dl_bytes=2 * MB, ul_bytes=0)
    # Fresh cap at B: still full speed - the double-spend the paper bounds.
    assert agws[1].admitted_downlink(ue.imsi, 100.0) == pytest.approx(10.0)
