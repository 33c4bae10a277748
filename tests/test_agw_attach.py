"""End-to-end LTE attach through the full Magma AGW stack."""

from repro.deploy import build
from repro.lte import UeState, nas
from repro.core.agw import SessionState


def test_single_ue_attach_succeeds():
    site = build(num_ues=1)
    outcome = site.run_attach(site.ues[0])
    assert outcome.success, outcome.cause
    ue = site.ues[0]
    assert ue.state == UeState.REGISTERED
    assert ue.ip_address is not None
    assert ue.ip_address.startswith("10.128.")


def test_attach_creates_session_and_dataplane_state():
    site = build(num_ues=1)
    site.run_attach(site.ues[0])
    site.sim.run(until=site.sim.now + 2.0)
    imsi = site.imsis[0]
    session = site.agw.sessiond.session(imsi)
    assert session is not None
    assert session.state == SessionState.ACTIVE
    assert session.ue_ip == site.ues[0].ip_address
    assert session.enb_teid is not None  # ICS response arrived
    assert site.agw.pipelined.has_session(imsi)
    flows = site.agw.pipelined.session(imsi)
    assert flows.enb_teid == session.enb_teid


def test_attach_latency_is_reasonable():
    site = build(num_ues=1)
    outcome = site.run_attach(site.ues[0])
    # A lone attach on an idle AGW: a few radio RTTs + ~1s of CPU.
    assert 0.1 < outcome.latency < 5.0


def test_mme_stats_track_attach():
    site = build(num_ues=1)
    site.run_attach(site.ues[0])
    site.sim.run(until=site.sim.now + 1.0)
    stats = site.agw.mme.stats
    assert stats["attach_requests"] == 1
    assert stats["attach_accepted"] == 1
    assert stats["attach_rejected"] == 0


def test_unknown_subscriber_rejected():
    site = build(num_ues=1)
    ue = site.ues[0]
    site.agw.subscriberdb.delete(ue.imsi)
    outcome = site.run_attach(ue)
    assert not outcome.success
    assert ue.state == UeState.DEREGISTERED
    assert site.agw.mme.stats["unknown_subscriber"] == 1


def test_wrong_key_fails_authentication():
    site = build(num_ues=1)
    ue = site.ues[0]
    ue.k = bytes(16)  # corrupt the USIM key
    outcome = site.run_attach(ue)
    assert not outcome.success
    # The UE detects the bad AUTN MAC (network can't prove knowledge of K).
    assert site.agw.mme.stats["attach_accepted"] == 0


def test_inactive_subscriber_rejected():
    site = build(num_ues=1)
    ue = site.ues[0]
    profile = site.agw.subscriberdb._profiles[ue.imsi]
    from dataclasses import replace
    site.agw.subscriberdb.upsert(replace(profile, active=False))
    outcome = site.run_attach(ue)
    assert not outcome.success


def test_multiple_ues_attach():
    site = build(num_ues=10)
    events = [ue.attach() for ue in site.ues]
    site.sim.run(until=60.0)
    outcomes = [ev.value for ev in events]
    assert all(o.success for o in outcomes)
    assert site.agw.sessiond.session_count() == 10
    ips = {ue.ip_address for ue in site.ues}
    assert len(ips) == 10  # unique IPs


def test_detach_releases_everything():
    site = build(num_ues=1)
    ue = site.ues[0]
    site.run_attach(ue)
    site.sim.run(until=site.sim.now + 1.0)
    imsi = ue.imsi
    old_ip = ue.ip_address
    ue.detach()
    site.sim.run(until=site.sim.now + 2.0)
    assert ue.state == UeState.DEREGISTERED
    assert site.agw.sessiond.session(imsi) is None
    assert not site.agw.pipelined.has_session(imsi)
    assert site.agw.mobilityd.lookup_ip(imsi) is None
    # A CDR was written.
    assert len(site.agw.accounting) == 1
    assert site.agw.accounting.records()[0].imsi == imsi
    # Re-attach works and can reuse the address pool.
    outcome = site.run_attach(ue)
    assert outcome.success
    assert ue.ip_address is not None


def test_reattach_replaces_stale_session():
    site = build(num_ues=1)
    ue = site.ues[0]
    site.run_attach(ue)
    site.sim.run(until=site.sim.now + 1.0)
    # UE loses state without detaching (e.g. battery pull) and re-attaches.
    ue.state = UeState.DEREGISTERED
    ue.enb.rrc_release(ue)
    outcome = site.run_attach(ue)
    assert outcome.success
    assert site.agw.sessiond.session_count() == 1


def test_attach_times_out_when_agw_down(monkeypatch):
    monkeypatch.setattr(nas, "T3410_ATTACH", 5.0)
    site = build(num_ues=1)
    site.network.set_node_up("agw-1", False)
    outcome = site.run_attach(site.ues[0])
    assert not outcome.success
    assert "T3410" in outcome.cause


def test_cell_capacity_rejects_excess_ues():
    from repro.lte import CellConfig
    site = build(num_ues=3, cell_config=CellConfig(max_active_ues=2))
    events = [ue.attach() for ue in site.ues]
    site.sim.run(until=60.0)
    outcomes = [ev.value for ev in events]
    successes = [o for o in outcomes if o.success]
    failures = [o for o in outcomes if not o.success]
    assert len(successes) == 2
    assert len(failures) == 1
    assert "cell full" in failures[0].cause


def test_directoryd_tracks_location():
    site = build(num_enbs=2, num_ues=2)
    for ue in site.ues:
        site.run_attach(ue)
    site.sim.run(until=site.sim.now + 1.0)
    record = site.agw.directoryd.lookup(site.imsis[0])
    assert record is not None
    assert record.frontend == "s1ap"


def test_enodebd_registers_enbs():
    site = build(num_enbs=3, num_ues=1)
    assert site.agw.enodebd.count() == 3
    assert site.agw.enodebd.device("enb-2") is not None


def test_service_request_accepted_with_session():
    from repro.lte import nas
    site = build(num_ues=1)
    ue = site.ues[0]
    site.run_attach(ue)
    site.sim.run(until=site.sim.now + 1.0)
    # Simulate idle->active: UE sends a ServiceRequest as an initial message.
    context = site.enbs[0].context_for(ue.imsi)
    assert context is not None
    ue._send_nas(nas.ServiceRequest(imsi=ue.imsi))
    site.sim.run(until=site.sim.now + 2.0)
    # No crash and session still present.
    assert site.agw.sessiond.session(ue.imsi) is not None


def test_sqn_resynchronization_recovers_stale_network_sqn():
    """A USIM whose SQN is ahead of the network's (e.g. after serving time
    at a different AGW) triggers 3GPP-style resync, then attaches."""
    site = build(num_ues=1)
    ue = site.ues[0]
    ue.usim_sqn = 25  # USIM far ahead of this AGW's SQN state
    outcome = site.run_attach(ue)
    assert outcome.success, outcome.cause
    # The network adopted the USIM's SQN and moved past it.
    assert site.agw.subscriberdb._sqn[ue.imsi] > 25


def test_sqn_resync_only_tried_once():
    """If resync doesn't fix it (hostile/broken UE), attach fails."""
    site = build(num_ues=1)
    ue = site.ues[0]

    # A UE that always claims sync failure regardless of the vector.
    from repro.lte import nas as nas_mod

    def always_unsynced(message):
        if isinstance(message, nas_mod.AuthenticationRequest):
            ue._send_nas(nas_mod.AuthenticationFailureMsg(
                imsi=ue.imsi, cause="sync_failure:999"))
        else:
            type(ue).deliver_nas(ue, message)

    ue.deliver_nas = always_unsynced
    outcome = site.run_attach(ue)
    assert not outcome.success
    assert site.agw.mme.stats["auth_failures"] == 1


def test_graceful_detach_waits_for_accept():
    site = build(num_ues=1)
    ue = site.ues[0]
    assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    done = ue.detach(switch_off=False)
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    assert ok
    assert ue.state == UeState.DEREGISTERED
    assert site.agw.sessiond.session(ue.imsi) is None
    # The detach completed via DetachAccept, well before the guard timer.


def test_graceful_detach_falls_back_on_timer_when_agw_dies():
    site = build(num_ues=1)
    ue = site.ues[0]
    assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    site.network.set_node_up("agw-1", False)
    start = site.sim.now
    done = ue.detach(switch_off=False)
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    assert ok  # locally deregistered anyway
    assert site.sim.now - start >= 5.0  # via the guard timer
    assert ue.state == UeState.DEREGISTERED
