"""Sessiond edge cases: pool exhaustion, reattach, OCS unreachable, teids."""

from repro.core.agw import AgwConfig
from repro.deploy import build
from repro.lte import UeState, nas


def test_ip_pool_exhaustion_rejects_attach_cleanly():
    """A full address pool must produce an AttachReject, not a hang."""
    site2 = build(num_ues=3, config=AgwConfig(ip_block="10.128.0.0/30"),
                  seed=2)
    outcomes = []
    for ue in site2.ues:
        outcomes.append(site2.run_attach(ue))
    successes = [o for o in outcomes if o.success]
    failures = [o for o in outcomes if not o.success]
    assert len(successes) == 2          # /30 has 2 usable hosts
    assert len(failures) == 1
    # The failed UE got a *reject* (fast), not a T3410 timeout.
    assert "no IP available" in failures[0].cause
    assert site2.agw.mme.stats["attach_rejected"] == 1


def test_session_teid_reused_after_release():
    site = build(num_ues=1)
    ue = site.ues[0]
    assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    teid = site.agw.sessiond.session(ue.imsi).agw_teid
    ue.detach()
    site.sim.run(until=site.sim.now + 2.0)
    outcome = site.run_attach(ue)
    assert outcome.success
    site.sim.run(until=site.sim.now + 2.0)
    assert site.agw.sessiond.session(ue.imsi).agw_teid == teid


def test_record_usage_for_unknown_imsi_is_noop():
    site = build(num_ues=1)
    site.agw.sessiond.record_usage("9" * 15, dl_bytes=100, ul_bytes=0)
    assert site.agw.sessiond.session_count() == 0


def test_terminate_unknown_session_returns_false():
    site = build(num_ues=1)
    assert site.agw.sessiond.terminate_session("9" * 15) is False


def test_allowed_rate_for_unknown_is_zero():
    site = build(num_ues=1)
    assert site.agw.sessiond.session("9" * 15) is None
    assert site.agw.admitted_downlink("9" * 15, 5.0) == 0.0


def test_online_policy_without_ocs_rejects():
    from repro.core.policy import prepaid
    site = build(num_ues=1, policy=prepaid("prepaid"))  # no OCS at all
    outcome = site.run_attach(site.ues[0])
    assert not outcome.success


def test_ocs_unreachable_over_network_rejects_attach(monkeypatch):
    """OCS reached over RPC but its node is down: quota call fails and the
    attach is rejected rather than hanging."""
    from repro.core.agw import AccessGateway, SubscriberProfile
    from repro.core.policy import prepaid
    from repro.lte import Enodeb, Ue, make_imsi
    from repro.net import Network, backhaul
    from repro.sim import RngRegistry, Simulator
    from repro.deploy import subscriber_keys

    sim = Simulator()
    network = Network(sim, RngRegistry(3))
    network.add_node("ocs-node")
    network.connect("agw-1", "ocs-node", backhaul.fiber())
    agw = AccessGateway(sim, network, "agw-1", ocs_node="ocs-node")
    agw.policydb.upsert(prepaid("prepaid"))
    network.connect("enb-1", "agw-1", backhaul.lan())
    enb = Enodeb(sim, network, "enb-1", "agw-1")
    imsi = make_imsi(1)
    k, opc = subscriber_keys(1)
    agw.subscriberdb.upsert(SubscriberProfile(imsi=imsi, k=k, opc=opc,
                                              policy_id="prepaid"))
    enb.s1_setup()
    sim.run(until=1.0)
    network.set_node_up("ocs-node", False)
    monkeypatch.setattr(nas, "T3410_ATTACH", 20.0)
    ue = Ue(sim, imsi, k, opc, enb)
    done = ue.attach()
    outcome = sim.run_until_triggered(done, limit=60.0)
    assert not outcome.success
    assert ue.state == UeState.DEREGISTERED


def test_reattach_while_active_replaces_session_once():
    site = build(num_ues=1)
    ue = site.ues[0]
    assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    first_id = site.agw.sessiond.session(ue.imsi).session_id
    # UE reboots without detach and attaches again.
    ue.state = UeState.DEREGISTERED
    ue.enb.rrc_release(ue)
    assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    session = site.agw.sessiond.session(ue.imsi)
    assert session.session_id != first_id
    assert site.agw.sessiond.session_count() == 1
    # The replaced session produced a CDR with reason tracking.
    assert len(site.agw.accounting) == 1


# -- crash-recovery restore seeding (regression: seed code collided) -------------


def test_restore_into_fresh_gateway_seeds_teid_and_session_ids():
    """A replacement AGW restoring a checkpoint must not re-mint the TEIDs,
    session ids, or UE IPs its restored sessions still hold.  (The seed
    behaviour allocated TEID 0x1000 / session id ``agw-1-s1`` / IP
    ``10.128.0.1`` again on the first post-restore attach.)"""
    site = build(num_ues=1)
    assert site.run_attach(site.ues[0]).success
    site.sim.run(until=site.sim.now + 2.0)
    snapshot = site.agw.sessiond.checkpoint()

    # A brand-new gateway process under the same node name: every
    # allocator starts from scratch, exactly like a post-crash replacement.
    fresh = build(num_ues=2, seed=7)
    assert fresh.agw.sessiond.restore(snapshot) == 1
    restored = fresh.agw.sessiond.session(site.ues[0].imsi)
    assert restored is not None

    new_ue = fresh.ues[1]  # a different subscriber than the restored one
    assert fresh.run_attach(new_ue).success
    fresh.sim.run(until=fresh.sim.now + 2.0)
    created = fresh.agw.sessiond.session(new_ue.imsi)
    assert created.agw_teid != restored.agw_teid
    assert created.session_id != restored.session_id
    assert created.ue_ip != restored.ue_ip


def test_restore_seeds_only_own_node_session_ids():
    """Ids minted by another gateway (failover promotion) use a different
    prefix and must not advance this node's counter."""
    site = build(num_ues=1)
    assert site.run_attach(site.ues[0]).success
    site.sim.run(until=site.sim.now + 2.0)
    snapshot = site.agw.sessiond.checkpoint()
    for entry in snapshot:
        entry["session_id"] = "agw-other-s999"
    fresh = build(num_ues=2, seed=8)
    fresh.agw.sessiond.restore(snapshot)
    assert fresh.run_attach(fresh.ues[1]).success
    fresh.sim.run(until=fresh.sim.now + 2.0)
    created = fresh.agw.sessiond.session(fresh.ues[1].imsi)
    assert created.session_id == "agw-1-s1"   # counter untouched


def test_restore_programs_dataplane_in_one_bundle():
    site = build(num_ues=3)
    for ue in site.ues:
        assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    snapshot = site.agw.sessiond.checkpoint()
    fresh = build(num_ues=1, seed=9)
    before = fresh.agw.pipelined.switch.stats["control_msgs"]
    assert fresh.agw.sessiond.restore(snapshot) == 3
    switch_stats = fresh.agw.pipelined.switch.stats
    assert switch_stats["bundles"] == 1
    assert switch_stats["control_msgs"] == before + 1
    # The data plane is fully functional after the bundle commit.
    for imsi in site.imsis:
        assert fresh.agw.pipelined.has_session(imsi)
        assert fresh.agw.pipelined.session(imsi).enb_teid is not None


def test_restore_rebuilds_mobilityd_with_single_bulk_call():
    site = build(num_ues=3)
    for ue in site.ues:
        assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    snapshot = site.agw.sessiond.checkpoint()
    fresh = build(num_ues=1, seed=10)
    calls = []
    original = fresh.agw.mobilityd.restore
    fresh.agw.mobilityd.restore = lambda assignments: (
        calls.append(len(assignments)), original(assignments))
    fresh.agw.sessiond.restore(snapshot)
    assert calls == [3]   # one bulk call, not one per entry
    assert fresh.agw.mobilityd.assigned_count == 3
