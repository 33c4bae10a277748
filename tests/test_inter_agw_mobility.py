"""Inter-AGW mobility (the paper's future work, implemented as extension)."""

import pytest

from repro.core.agw import AccessGateway, SubscriberProfile
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
        from repro.core.agw import AgwConfig
        block = "10.10.0.0/24" if name == "agw-a" else "10.20.0.0/24"
        agw = AccessGateway(sim, network, name,
                            config=AgwConfig(ip_block=block),
                            rng=rng.fork(name))
        enb_id = f"enb-{name}"
        network.connect(enb_id, name, backhaul.lan())
        enbs.append(Enodeb(sim, network, enb_id, name))
        agws.append(agw)
    # AGWs can reach each other (S10) over the operator's backhaul.
    network.connect("agw-a", "agw-b", backhaul.microwave())
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


def run_handover(sim, agws, enbs, ue):
    """The inter-AGW hand-off flow: fetch context, then re-attach at B."""
    source, target = agws
    done = sim.event("transfer")

    def proc(s):
        result = yield from target.inter_agw.fetch_context(ue.imsi, "agw-a")
        return result

    p = sim.spawn(proc(sim))
    transferred = sim.run_until_triggered(p, limit=sim.now + 30.0)
    assert transferred is not None
    # The UE re-attaches at the target's radio.
    ue.state = UeState.DEREGISTERED
    ue.enb.rrc_release(ue)
    ue.enb = enbs[1]
    attach = ue.attach()
    outcome = sim.run_until_triggered(attach, limit=sim.now + 60.0)
    assert outcome.success, outcome.cause
    sim.run(until=sim.now + 2.0)
    return transferred


def test_context_transfer_moves_session_between_agws():
    sim, network, agws, enbs, ue = two_agw_network()
    done = ue.attach()
    assert sim.run_until_triggered(done, limit=60.0).success
    sim.run(until=sim.now + 2.0)
    assert agws[0].sessiond.session(ue.imsi) is not None
    old_ip = ue.ip_address

    run_handover(sim, agws, enbs, ue)

    # Session now lives at B only; source wrote its CDR.
    assert agws[0].sessiond.session(ue.imsi) is None
    assert agws[1].sessiond.session(ue.imsi) is not None
    assert len(agws[0].accounting) == 1
    # The IP changes (per-AGW blocks) - documented limitation.
    assert ue.ip_address != old_ip
    assert ue.ip_address.startswith("10.20.")
    assert agws[0].inter_agw.stats["transfers_out"] == 1
    assert agws[1].inter_agw.stats["transfers_in"] == 1


def test_usage_cap_state_follows_the_subscriber():
    """The cap does NOT reset by hopping AGWs: enforcement state moves."""
    policy = capped("cap", mbps=10.0, cap_bytes=5 * MB, throttled_mbps=1.0)
    sim, network, agws, enbs, ue = two_agw_network(policy=policy)
    done = ue.attach()
    assert sim.run_until_triggered(done, limit=60.0).success
    sim.run(until=sim.now + 2.0)
    # Use 4 of the 5 MB at AGW A.
    agws[0].sessiond.record_usage(ue.imsi, dl_bytes=4 * MB, ul_bytes=0)
    assert agws[0].admitted_downlink(ue.imsi, 100.0) == pytest.approx(10.0)

    run_handover(sim, agws, enbs, ue)

    session = agws[1].sessiond.session(ue.imsi)
    assert session.enforcement.total_bytes == 4 * MB
    # 2 more MB at AGW B crosses the cap: throttled, no double allowance.
    agws[1].sessiond.record_usage(ue.imsi, dl_bytes=2 * MB, ul_bytes=0)
    assert agws[1].admitted_downlink(ue.imsi, 100.0) == pytest.approx(1.0)


def test_without_transfer_cap_would_reset():
    """Control: skipping the transfer gives the §3.4 double allowance."""
    policy = capped("cap", mbps=10.0, cap_bytes=5 * MB, throttled_mbps=1.0)
    sim, network, agws, enbs, ue = two_agw_network(policy=policy)
    done = ue.attach()
    assert sim.run_until_triggered(done, limit=60.0).success
    sim.run(until=sim.now + 2.0)
    agws[0].sessiond.record_usage(ue.imsi, dl_bytes=4 * MB, ul_bytes=0)
    # Strategic move WITHOUT context transfer.
    ue.state = UeState.DEREGISTERED
    ue.enb.rrc_release(ue)
    ue.enb = enbs[1]
    attach = ue.attach()
    assert sim.run_until_triggered(attach, limit=sim.now + 60.0).success
    sim.run(until=sim.now + 2.0)
    agws[1].sessiond.record_usage(ue.imsi, dl_bytes=2 * MB, ul_bytes=0)
    # Fresh cap at B: still full speed - the double-spend the paper bounds.
    assert agws[1].admitted_downlink(ue.imsi, 100.0) == pytest.approx(10.0)


def test_transfer_for_unknown_session_returns_none():
    sim, network, agws, enbs, ue = two_agw_network()

    def proc(s):
        result = yield from agws[1].inter_agw.fetch_context("9" * 15,
                                                            "agw-a")
        return result

    p = sim.spawn(proc(sim))
    result = sim.run_until_triggered(p, limit=30.0)
    assert result is None
    assert agws[0].inter_agw.stats["transfer_misses"] == 1


def test_transfer_source_unreachable_returns_none():
    sim, network, agws, enbs, ue = two_agw_network()
    done = ue.attach()
    assert sim.run_until_triggered(done, limit=60.0).success
    network.set_node_up("agw-a", False)

    def proc(s):
        result = yield from agws[1].inter_agw.fetch_context(ue.imsi, "agw-a")
        return result

    p = sim.spawn(proc(sim))
    result = sim.run_until_triggered(p, limit=60.0)
    assert result is None
