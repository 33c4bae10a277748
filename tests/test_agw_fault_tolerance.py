"""Fault tolerance: checkpointing, crash recovery, small fault domains."""

import pytest

from repro.deploy import build
from repro.lte import nas


def attach_all(site, settle=2.0):
    events = [ue.attach() for ue in site.ues]
    site.sim.run(until=site.sim.now + 60.0)
    outcomes = [ev.value for ev in events]
    assert all(o.success for o in outcomes), [o.cause for o in outcomes]
    site.sim.run(until=site.sim.now + settle)


def test_checkpoint_contains_sessions():
    site = build(num_ues=3)
    attach_all(site)
    snapshot = site.agw.magmad.checkpoint_now()
    assert len(snapshot["sessions"]) == 3
    imsis = {entry["imsi"] for entry in snapshot["sessions"]}
    assert imsis == set(site.imsis)


def test_periodic_checkpoint_loop_runs():
    site = build(num_ues=1)
    attach_all(site)
    before = site.agw.magmad.stats["checkpoints"]
    site.sim.run(until=site.sim.now + 35.0)
    assert site.agw.magmad.stats["checkpoints"] > before


def test_crash_loses_runtime_state_and_recover_restores_it():
    site = build(num_ues=3)
    attach_all(site)
    site.agw.magmad.checkpoint_now()
    ips_before = {imsi: site.agw.sessiond.session(imsi).ue_ip
                  for imsi in site.imsis}

    site.agw.crash()
    assert site.agw.crashed
    restored = site.agw.recover()
    assert restored == 3
    for imsi in site.imsis:
        session = site.agw.sessiond.session(imsi)
        assert session is not None
        assert session.ue_ip == ips_before[imsi]
        assert site.agw.pipelined.has_session(imsi)
        # Data plane fully rebuilt including the downlink tunnel.
        assert site.agw.pipelined.session(imsi).enb_teid is not None


def test_recover_without_checkpoint_starts_empty(monkeypatch):
    from repro.core.agw import magmad
    monkeypatch.setattr(magmad, "CHECKPOINT_INTERVAL", 1e9)
    site = build(num_ues=2)
    attach_all(site)
    # No checkpoint was ever taken (interval is effectively infinite).
    site.agw.crash()
    restored = site.agw.recover()
    assert restored == 0
    assert site.agw.sessiond.session_count() == 0


def test_sessions_created_after_checkpoint_are_lost():
    site = build(num_ues=2)
    first = site.ues[0]
    second = site.ues[1]
    outcome = site.run_attach(first)
    assert outcome.success
    site.sim.run(until=site.sim.now + 2.0)
    site.agw.magmad.checkpoint_now()
    outcome = site.run_attach(second)
    assert outcome.success
    site.sim.run(until=site.sim.now + 2.0)
    site.agw.crash()
    restored = site.agw.recover()
    assert restored == 1
    assert site.agw.sessiond.session(first.imsi) is not None
    # The second UE's session is gone - it can simply re-attach (§3.4).
    assert site.agw.sessiond.session(second.imsi) is None


def test_ue_can_reattach_after_agw_recovery():
    site = build(num_ues=1)
    attach_all(site)
    ue = site.ues[0]
    site.agw.crash()
    site.agw.recover(from_checkpoint=False)
    # The UE lost its session; model the UE noticing and re-attaching.
    ue.state = "deregistered"
    ue.enb.rrc_release(ue)
    outcome = site.run_attach(ue)
    assert outcome.success


def test_attaches_fail_while_agw_down_succeed_after_recovery(monkeypatch):
    monkeypatch.setattr(nas, "T3410_ATTACH", 5.0)
    site = build(num_ues=2)
    site.agw.crash()
    outcome = site.run_attach(site.ues[0])
    assert not outcome.success
    site.agw.recover()
    outcome = site.run_attach(site.ues[1])
    assert outcome.success


def test_fault_domain_is_one_agw():
    """Two sites: crashing one AGW must not affect the other's UEs.

    This is the §3.3 claim - each AGW is a small, independent fault domain.
    """
    site_a = build(num_ues=2, seed=1)
    # A second, entirely independent site (its own simulator would be
    # trivially isolated, so build both on one simulator/network instead).
    from repro.core.agw import AccessGateway, SubscriberProfile
    from repro.lte import Enodeb, Ue, make_imsi
    from repro.net import backhaul
    from repro.deploy import subscriber_keys

    sim, network = site_a.sim, site_a.network
    agw_b = AccessGateway(sim, network, "agw-2", rng=site_a.rng)
    network.connect("enb-b", "agw-2", backhaul.lan())
    enb_b = Enodeb(sim, network, "enb-b", "agw-2")
    imsi_b = make_imsi(99)
    k, opc = subscriber_keys(99)
    agw_b.subscriberdb.upsert(SubscriberProfile(imsi=imsi_b, k=k, opc=opc))
    ue_b = Ue(sim, imsi_b, k, opc, enb_b)
    enb_b.s1_setup()
    sim.run(until=sim.now + 1.0)

    attach_all(site_a)
    outcome = site_a.run_attach(ue_b)
    assert outcome.success

    # Crash site A's AGW.
    site_a.agw.crash()
    sim.run(until=sim.now + 5.0)
    # Site B's UE still has its session; site B still accepts traffic.
    assert agw_b.sessiond.session(imsi_b) is not None
    assert agw_b.admitted_downlink(imsi_b, 10.0) == pytest.approx(10.0)
    # Site A's UEs are the only ones affected.
    assert site_a.agw.admitted_downlink(site_a.imsis[0], 10.0) == 0.0
