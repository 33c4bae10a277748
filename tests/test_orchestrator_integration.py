"""Orchestrator <-> AGW integration: desired-state sync, headless operation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.agw import AgwConfig, SubscriberProfile
from repro.core.orchestrator import NS_SUBSCRIBERS
from repro.core.policy import rate_limited
from repro.deploy import build, subscriber_keys
from repro.lte import Ue, make_imsi
from repro.net import Link


def build_deployment(checkin_interval=5.0, backhaul_profile="fiber",
                     num_subscribers=2, seed=1):
    d = build(num_ues=num_subscribers, backhaul=backhaul_profile, seed=seed,
              config=AgwConfig(checkin_interval=checkin_interval))
    return d.sim, d.network, d.orc, d.agw, d.enbs[0], d.ues


def test_config_syncs_on_checkin():
    sim, network, orc, agw, enb, ues = build_deployment()
    assert len(agw.subscriberdb) == 0  # nothing synced yet
    sim.run(until=10.0)  # past the first check-in
    assert len(agw.subscriberdb) == 2
    assert agw.subscriberdb.version == orc.store.version
    assert agw.magmad.stats["checkins_ok"] >= 1
    assert agw.magmad.stats["configs_applied"] >= 1


def test_attach_works_with_orchestrator_provisioned_subscriber():
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)
    done = ues[0].attach()
    result = sim.run_until_triggered(done, limit=60.0)
    assert result.success


def test_policy_sync_and_enforcement():
    sim, network, orc, agw, enb, ues = build_deployment()
    orc.upsert_policy(rate_limited("bronze", 3.0))
    k, opc = subscriber_keys(1)
    orc.add_subscriber(SubscriberProfile(imsi=ues[0].imsi, k=k, opc=opc,
                                         policy_id="bronze"))
    sim.run(until=10.0)
    assert agw.policydb.has("bronze")
    done = ues[0].attach()
    result = sim.run_until_triggered(done, limit=60.0)
    assert result.success
    sim.run(until=sim.now + 2.0)
    assert agw.admitted_downlink(ues[0].imsi, 100.0) == pytest.approx(3.0)


def test_subscriber_deletion_propagates():
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)
    assert len(agw.subscriberdb) == 2
    orc.delete_subscriber(ues[1].imsi)
    sim.run(until=20.0)
    assert len(agw.subscriberdb) == 1
    assert agw.subscriberdb.get(ues[1].imsi) is None


def test_headless_operation_attaches_from_cache():
    """§3.2: AGW keeps establishing sessions while the orchestrator is
    unreachable, from cached subscriber profiles."""
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)  # sync config first
    network.set_node_up("orc", False)
    sim.run(until=30.0)
    assert agw.magmad.stats["checkins_failed"] >= 1
    done = ues[0].attach()
    result = sim.run_until_triggered(done, limit=60.0)
    assert result.success  # attach succeeded headless


def test_headless_new_subscribers_wait_for_reconnect():
    """Network-wide changes (new subscriber) wait until the central control
    plane is reachable again (§3.2)."""
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)
    network.set_node_up("orc", False)
    imsi = make_imsi(50)
    k, opc = subscriber_keys(50)
    orc.add_subscriber(SubscriberProfile(imsi=imsi, k=k, opc=opc))
    new_ue = Ue(sim, imsi, k, opc, enb)
    sim.run(until=30.0)
    done = new_ue.attach()
    result = sim.run_until_triggered(done, limit=60.0)
    assert not result.success  # AGW has never heard of this subscriber
    # Orchestrator comes back; next check-in syncs; attach now succeeds.
    network.set_node_up("orc", True)
    sim.run(until=sim.now + 15.0)
    assert agw.subscriberdb.get(imsi) is not None
    done = new_ue.attach()
    result = sim.run_until_triggered(done, limit=60.0)
    assert result.success


def test_sync_over_lossy_satellite_backhaul():
    """Desired-state sync over satellite: slow, but converges."""
    sim, network, orc, agw, enb, ues = build_deployment(
        backhaul_profile="satellite", checkin_interval=5.0, seed=3)
    sim.run(until=60.0)
    assert len(agw.subscriberdb) == 2


#: Check-in intervals the AGW gets, after the last northbound write, to
#: hold exactly the store's subscribers.
RECONVERGE_CHECKINS = 3

#: One northbound op: (subscriber index, delete?, seconds to the next op).
northbound_op = st.tuples(st.integers(1, 50), st.booleans(),
                          st.sampled_from([0.0, 0.5, 2.0, 7.0]))


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(northbound_op, max_size=40),
       loss=st.floats(0.0, 0.2), seed=st.integers(0, 1000))
def test_subscriberdb_reconverges_after_churn_on_a_lossy_link(ops, loss,
                                                              seed):
    """§3.4 on the real path: whatever adds, updates and deletes the
    orchestrator took, and whatever the link dropped, the AGW's check-ins
    leave its subscriberdb equal to the store's namespace."""
    d = build(num_enbs=0, num_ues=0, backhaul="fiber", seed=seed,
              config=AgwConfig(checkin_interval=5.0))
    d.network.connect("agw-1", "orc", Link(latency=0.05, loss=loss))
    orc, db = d.orc, d.agw.subscriberdb
    for version, (index, delete, gap) in enumerate(ops):
        imsi = make_imsi(index)
        if not delete:
            k, opc = subscriber_keys(index)
            orc.add_subscriber(SubscriberProfile(imsi=imsi, k=k, opc=opc,
                                                 apn=f"apn-{version}"))
        elif orc.store.get(NS_SUBSCRIBERS, imsi) is not None:
            orc.delete_subscriber(imsi)
        d.sim.run(until=d.sim.now + gap)
    d.sim.run(until=d.sim.now + RECONVERGE_CHECKINS * 5.0)
    assert {imsi: db.get(imsi) for imsi in db.all_imsis()} == \
        orc.store.namespace(NS_SUBSCRIBERS)


def test_orchestrator_tracks_gateway_state():
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=12.0)
    gateways = orc.list_gateways()
    assert len(gateways) == 1
    assert gateways[0]["gateway_id"] == "agw-1"
    assert gateways[0]["checkins"] >= 1
    assert orc.gateway_status("agw-1") is not None
    assert orc.gateway_status("ghost") is None


def test_metrics_flow_to_orchestrator():
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)
    done = ues[0].attach()
    sim.run_until_triggered(done, limit=60.0)
    sim.run(until=sim.now + 10.0)
    samples = orc.query_metric("attach_accepted", {"gateway_id": "agw-1"})
    assert samples
    assert samples[-1].value == 1.0


def test_offline_gateway_alert():
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)
    assert orc.evaluate_alerts() == []
    network.set_node_up("agw-1", False)
    sim.run(until=sim.now + 400.0)  # past the 300 s offline threshold
    new_alerts = orc.evaluate_alerts()
    assert len(new_alerts) == 1
    assert new_alerts[0].subject == "agw-1"
    assert new_alerts[0].rule_name == "gateway-offline"


def test_unhealthy_gateway_alert():
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)
    assert orc.evaluate_alerts() == []
    # Make the gateway's self-reported health fail (stale RAN device).
    sim.run(until=400.0)  # no eNB heartbeats for > 300 s
    sim.run(until=sim.now + 10.0)  # one more check-in carries the status
    alerts = orc.evaluate_alerts()
    names = {a.rule_name for a in alerts}
    assert "gateway-unhealthy" in names
