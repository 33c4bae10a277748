"""5G access through the AGW's NGAP frontend."""

import pytest

from repro.deploy import build, subscriber_keys
from repro.fiveg import Ue5g, Ue5gState


def build_5g_site(num_subscribers=2, **kwargs):
    """A gNB-only site: its UEs are 5G UEs."""
    site = build(num_enbs=0, num_ues=num_subscribers, rats=("5g",), **kwargs)
    return site, site.gnbs[0], site.ues


def register_and_session(site, ue):
    done = ue.register()
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    assert ok, "registration failed"
    done = ue.establish_pdu_session()
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    assert ok, "PDU session failed"
    site.sim.run(until=site.sim.now + 2.0)


def test_5g_registration_succeeds():
    site, gnb, ues = build_5g_site()
    done = ues[0].register()
    ok = site.sim.run_until_triggered(done, limit=60.0)
    assert ok
    assert ues[0].state == Ue5gState.REGISTERED
    assert ues[0].guti_5g is not None
    # Registration alone creates no session (5G split, unlike LTE attach).
    assert site.agw.sessiond.session(ues[0].imsi) is None


def test_5g_pdu_session_gets_ip_and_dataplane():
    site, gnb, ues = build_5g_site()
    register_and_session(site, ues[0])
    ue = ues[0]
    assert ue.state == Ue5gState.SESSION_ACTIVE
    assert ue.ip_address is not None
    session = site.agw.sessiond.session(ue.imsi)
    assert session is not None
    assert session.enb_teid is not None
    assert site.agw.pipelined.has_session(ue.imsi)


def test_5g_usim_mac_failure_is_a_counted_auth_failure():
    """A USIM that cannot verify the network's AUTN says so, as an LTE UE
    does: the AGW counts a rejected registration and drops the context
    instead of leaving it waiting for an answer that never comes."""
    site, gnb, ues = build_5g_site()
    ue = ues[0]
    ue.opc = bytes(16)  # wrong OPc: the AUTN MAC check fails
    ok = site.sim.run_until_triggered(ue.register(), limit=60.0)
    site.sim.run(until=site.sim.now + 1.0)
    assert not ok
    assert ue.state == Ue5gState.DEREGISTERED
    stats = site.agw.mme.stats
    assert (stats["auth_failures"], stats["attach_rejected"]) == (1, 1)
    assert site.agw.mme.context_for(ue.imsi) is None


def test_5g_usim_ahead_of_the_agw_resyncs_and_registers():
    """A USIM whose SQN is ahead of this AGW's (it registered at another
    AGW) reports an SQN failure; the AGW resynchronises and registers it."""
    site, gnb, ues = build_5g_site()
    ue = ues[0]
    ue.usim_sqn = 1000
    ok = site.sim.run_until_triggered(ue.register(), limit=60.0)
    assert ok
    assert ue.state == Ue5gState.REGISTERED
    assert site.agw.subscriberdb._sqn[ue.imsi] > 1000
    assert site.agw.mme.stats["auth_failures"] == 0


def test_5g_unknown_subscriber_rejected():
    site, gnb, ues = build_5g_site()
    ue = ues[0]
    site.agw.subscriberdb.delete(ue.imsi)
    done = ue.register()
    ok = site.sim.run_until_triggered(done, limit=60.0)
    assert not ok
    assert ue.state == Ue5gState.DEREGISTERED


def test_5g_wrong_key_rejected():
    site, gnb, ues = build_5g_site()
    ue = ues[0]
    ue.k = bytes(16)
    done = ue.register()
    ok = site.sim.run_until_triggered(done, limit=60.0)
    assert not ok


def test_5g_pdu_session_requires_registration():
    site, gnb, ues = build_5g_site()
    done = ues[0].establish_pdu_session()
    ok = site.sim.run_until_triggered(done, limit=60.0)
    assert not ok


def test_5g_deregistration_cleans_up():
    site, gnb, ues = build_5g_site()
    register_and_session(site, ues[0])
    ue = ues[0]
    ue.deregister()
    site.sim.run(until=site.sim.now + 2.0)
    assert ue.state == Ue5gState.DEREGISTERED
    assert site.agw.sessiond.session(ue.imsi) is None
    assert len(site.agw.accounting) == 1


def test_5g_policy_enforced_like_lte():
    from repro.core.policy import rate_limited
    site, gnb, ues = build_5g_site(policy=rate_limited("gold", 50.0))
    register_and_session(site, ues[0])
    assert site.agw.admitted_downlink(ues[0].imsi, 200.0) == pytest.approx(50.0)


def test_5g_uses_generic_functions():
    """The same AccessManagement/Sessiond counters move for 5G attaches."""
    site, gnb, ues = build_5g_site()
    register_and_session(site, ues[0])
    assert site.agw.mme.stats["attach_requests"] == 1
    assert site.agw.mme.stats["attach_accepted"] == 1
    assert site.agw.sessiond.stats["created"] == 1
    assert site.agw.enodebd.device("gnb-1").kind == "gnb"


def test_lte_5g_wifi_one_core():
    """The headline Table-1 claim: three access technologies, one AGW.

    Three different subscribers connect via LTE, 5G, and WiFi through a
    single AGW; all three get sessions from the same generic functions and
    appear in the same session table, address pool, and accounting log.
    """
    site = build(num_ues=3, rats=("5g", "wifi"))
    ap = site.aps[0]

    # Subscriber 1: LTE.
    outcome = site.run_attach(site.ues[0])
    assert outcome.success
    # Subscriber 2: 5G.
    register_and_session(
        site, Ue5g(site.sim, site.imsis[1], *subscriber_keys(2), site.gnbs[0]))
    # Subscriber 3: WiFi.
    done = ap.connect(site.imsis[2], f"wifi-{site.imsis[2]}")
    state = site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    assert state.connected
    site.sim.run(until=site.sim.now + 2.0)

    assert site.agw.sessiond.session_count() == 3
    ips = {site.agw.sessiond.session(imsi).ue_ip for imsi in site.imsis}
    assert len(ips) == 3
    frontends = {site.agw.directoryd.lookup(imsi).frontend
                 for imsi in site.imsis}
    assert frontends == {"s1ap", "ngap", "radius"}


def test_5g_pdu_session_release_keeps_registration():
    site, gnb, ues = build_5g_site()
    register_and_session(site, ues[0])
    ue = ues[0]
    done = ue.release_pdu_session()
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    assert ok
    site.sim.run(until=site.sim.now + 1.0)
    assert ue.state == Ue5gState.REGISTERED
    assert ue.ip_address is None
    assert site.agw.sessiond.session(ue.imsi) is None
    assert len(site.agw.accounting) == 1
    # A fresh PDU session can be established again.
    done = ue.establish_pdu_session()
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    assert ok
    assert ue.ip_address is not None


def test_5g_pdu_release_requires_active_session():
    site, gnb, ues = build_5g_site()
    done = ues[0].release_pdu_session()
    assert site.sim.run_until_triggered(done, limit=10.0) is False
