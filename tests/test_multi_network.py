"""Multi-network (tenant) support: per-network config isolation."""

from repro.core.agw import AccessGateway, AgwConfig, SubscriberProfile
from repro.core.orchestrator import Orchestrator
from repro.core.policy import rate_limited
from repro.deploy import subscriber_keys
from repro.lte import Enodeb, Ue, make_imsi
from repro.net import Network, backhaul
from repro.sim import RngRegistry, Simulator


def build_two_networks(checkin_interval=5.0, seed=1):
    """One orchestrator, two logical networks, one AGW in each."""
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    orc = Orchestrator(sim, network, "orc")
    agws = {}
    enbs = {}
    for net_id in ("coop-a", "coop-b"):
        node = f"agw-{net_id}"
        network.connect(node, "orc", backhaul.fiber())
        agws[net_id] = AccessGateway(
            sim, network, node,
            config=AgwConfig(checkin_interval=checkin_interval,
                             network_id=net_id),
            orchestrator_node="orc", rng=rng.fork(node))
        enb_id = f"enb-{net_id}"
        network.connect(enb_id, node, backhaul.lan())
        enbs[net_id] = Enodeb(sim, network, enb_id, node)
        agws[net_id].start()
        enbs[net_id].s1_setup()
    sim.run(until=1.0)
    return sim, network, orc, agws, enbs


def test_config_isolated_per_network():
    sim, network, orc, agws, enbs = build_two_networks()
    imsi_a, imsi_b = make_imsi(1), make_imsi(2)
    k1, opc1 = subscriber_keys(1)
    k2, opc2 = subscriber_keys(2)
    orc.add_subscriber(SubscriberProfile(imsi=imsi_a, k=k1, opc=opc1),
                       network_id="coop-a")
    orc.add_subscriber(SubscriberProfile(imsi=imsi_b, k=k2, opc=opc2),
                       network_id="coop-b")
    sim.run(until=15.0)
    # Each gateway sees only its own network's subscribers.
    assert agws["coop-a"].subscriberdb.get(imsi_a) is not None
    assert agws["coop-a"].subscriberdb.get(imsi_b) is None
    assert agws["coop-b"].subscriberdb.get(imsi_b) is not None
    assert agws["coop-b"].subscriberdb.get(imsi_a) is None


def test_subscriber_of_one_network_rejected_by_other():
    sim, network, orc, agws, enbs = build_two_networks()
    imsi = make_imsi(1)
    k, opc = subscriber_keys(1)
    orc.add_subscriber(SubscriberProfile(imsi=imsi, k=k, opc=opc),
                       network_id="coop-a")
    sim.run(until=15.0)
    # Attaching at network B's radio fails (not B's subscriber)...
    ue = Ue(sim, imsi, k, opc, enbs["coop-b"])
    done = ue.attach()
    outcome = sim.run_until_triggered(done, limit=sim.now + 60.0)
    assert not outcome.success
    # ...while network A serves them.
    ue.enb = enbs["coop-a"]
    done = ue.attach()
    outcome = sim.run_until_triggered(done, limit=sim.now + 60.0)
    assert outcome.success


def test_policies_isolated_per_network():
    sim, network, orc, agws, enbs = build_two_networks()
    orc.upsert_policy(rate_limited("gold", 100.0), network_id="coop-a")
    orc.upsert_policy(rate_limited("gold", 1.0), network_id="coop-b")
    sim.run(until=15.0)
    assert agws["coop-a"].policydb.get("gold").rate_limit_mbps == 100.0
    assert agws["coop-b"].policydb.get("gold").rate_limit_mbps == 1.0


def test_northbound_counts_per_network():
    sim, network, orc, agws, enbs = build_two_networks()
    k, opc = subscriber_keys(1)
    orc.add_subscriber(SubscriberProfile(imsi=make_imsi(1), k=k, opc=opc),
                       network_id="coop-a")
    orc.add_subscriber(SubscriberProfile(imsi=make_imsi(2), k=k, opc=opc),
                       network_id="coop-a")
    orc.add_subscriber(SubscriberProfile(imsi=make_imsi(3), k=k, opc=opc),
                       network_id="coop-b")
    assert orc.subscriber_count(network_id="coop-a") == 2
    assert orc.subscriber_count(network_id="coop-b") == 1
    assert orc.subscriber_count() == 0  # default network untouched
    orc.delete_subscriber(make_imsi(1), network_id="coop-a")
    assert orc.subscriber_count(network_id="coop-a") == 1


def test_gateway_network_membership_recorded():
    sim, network, orc, agws, enbs = build_two_networks()
    sim.run(until=10.0)
    states = {g.gateway_id: g for g in orc.statesync.gateways()}
    assert states["agw-coop-a"].network_id == "coop-a"
    assert states["agw-coop-b"].network_id == "coop-b"


def test_scoped_namespace_helper():
    from repro.core.orchestrator import scoped
    assert scoped("subscribers", "default") == "subscribers"
    assert scoped("subscribers", "tenant-x") == "subscribers@tenant-x"
