"""WiFi access through the AGW's RADIUS frontend + captive portal units."""

import pytest

from repro.deploy import build
from repro.wifi import AP_CAPACITY_MBPS
from repro.wifi.captive_portal import CaptivePortal, PortalError


def build_wifi_site(num_subscribers=2, **kwargs):
    site = build(num_ues=num_subscribers, rats=("wifi",), **kwargs)
    return site, site.aps[0]


def test_wifi_connect_success():
    site, ap = build_wifi_site()
    username = site.imsis[0]
    done = ap.connect(username, f"wifi-{username}")
    state = site.sim.run_until_triggered(done, limit=60.0)
    assert state.connected
    assert state.ip is not None
    session = site.agw.sessiond.session(username)
    assert session is not None
    assert session.ue_ip == state.ip


def test_wifi_wrong_secret_rejected():
    site, ap = build_wifi_site()
    username = site.imsis[0]
    done = ap.connect(username, "wrong-password")
    state = site.sim.run_until_triggered(done, limit=60.0)
    assert not state.connected
    assert site.agw.sessiond.session(username) is None
    assert site.agw.radius.stats["rejects"] == 1


def test_wifi_unknown_user_rejected():
    site, ap = build_wifi_site()
    done = ap.connect("999999999999999", "whatever")
    state = site.sim.run_until_triggered(done, limit=60.0)
    assert not state.connected


def test_wifi_disconnect_terminates_session():
    site, ap = build_wifi_site()
    username = site.imsis[0]
    done = ap.connect(username, f"wifi-{username}")
    site.sim.run_until_triggered(done, limit=60.0)
    ap.disconnect(username)
    site.sim.run(until=site.sim.now + 2.0)
    assert site.agw.sessiond.session(username) is None
    assert site.agw.radius.stats["accounting_stops"] == 1
    assert len(site.agw.accounting) == 1


def test_wifi_disconnect_during_eap_closes_the_agw_session():
    site, ap = build_wifi_site()
    username = site.imsis[0]
    done = ap.connect(username, f"wifi-{username}")
    site.sim.run(until=site.sim.now + 0.0005)
    ap.disconnect(username)
    site.sim.run(until=site.sim.now + 10.0)
    assert done.triggered and not done.value.connected
    assert ap.client(username) is None
    assert ap.stats["auth_ok"] == 0
    # The Access-Accept landed after the disconnect: the AP answers it
    # with an Accounting-Stop, so the AGW session does not leak.
    assert site.agw.radius.stats["accepts"] == 1
    assert site.agw.radius.stats["accounting_stops"] == 1
    assert site.agw.sessiond.session(username) is None


def test_wifi_interim_accounting_records_usage():
    from repro.wifi.radius import AccountingRequest
    site, ap = build_wifi_site()
    username = site.imsis[0]
    done = ap.connect(username, f"wifi-{username}")
    site.sim.run_until_triggered(done, limit=60.0)
    # Interim accounting update flows usage into sessiond.
    handler_resp = site.agw.radius._on_accounting(AccountingRequest(
        username=username, session_id="s", acct_type="interim",
        bytes_dl=5000, bytes_ul=100))
    session = site.agw.sessiond.session(username)
    assert session.bytes_dl == 5000
    assert session.bytes_ul == 100


def test_wifi_ap_capacity_limit():
    site, ap = build_wifi_site()
    ap.max_clients = 1
    u1, u2 = site.imsis[0], site.imsis[1]
    d1 = ap.connect(u1, f"wifi-{u1}")
    site.sim.run_until_triggered(d1, limit=60.0)
    d2 = ap.connect(u2, f"wifi-{u2}")
    state = site.sim.run_until_triggered(d2, limit=60.0)
    assert not state.connected
    assert ap.stats["rejected_full"] == 1


def test_wifi_radio_contention_shares_capacity():
    site, ap = build_wifi_site()
    for username in site.imsis:
        done = ap.connect(username, f"wifi-{username}")
        site.sim.run_until_triggered(done, limit=60.0)
    for username in site.imsis:
        ap.set_offered_rate(username, 100.0)
    alloc = ap.allocate()
    assert sum(alloc.values()) == pytest.approx(AP_CAPACITY_MBPS)
    assert alloc[site.imsis[0]] == pytest.approx(alloc[site.imsis[1]])


def test_wifi_same_subscriberdb_as_lte():
    """One subscriber, two access technologies, one core (the paper's
    single-core claim): the same profile serves LTE and WiFi."""
    site, ap = build_wifi_site()
    ue = site.ues[0]
    outcome = site.run_attach(ue)   # LTE attach
    assert outcome.success
    site.sim.run(until=site.sim.now + 1.0)
    ue.detach()
    site.sim.run(until=site.sim.now + 2.0)
    # Same subscriber now connects over WiFi.
    done = ap.connect(ue.imsi, f"wifi-{ue.imsi}")
    state = site.sim.run_until_triggered(done, limit=60.0)
    assert state.connected
    # directoryd saw the move between frontends.
    record = site.agw.directoryd.lookup(ue.imsi)
    assert record.frontend == "radius"


def test_wifi_policy_enforced_like_lte():
    from repro.core.policy import rate_limited
    site, ap = build_wifi_site(
        policy=rate_limited("bronze", 2.0))
    username = site.imsis[0]
    done = ap.connect(username, f"wifi-{username}")
    state = site.sim.run_until_triggered(done, limit=60.0)
    assert state.connected
    assert site.agw.admitted_downlink(username, 100.0) == pytest.approx(2.0)


# -- captive portal -------------------------------------------------------------------


def test_portal_voucher_flow():
    clock = {"now": 0.0}
    portal = CaptivePortal(clock=lambda: clock["now"])
    portal.issue_voucher("ABC123", data_allowance_bytes=1000)
    session = portal.login("mac-1", "ABC123")
    assert portal.is_allowed("mac-1")
    portal.record_usage("mac-1", 500)
    assert portal.is_allowed("mac-1")
    portal.record_usage("mac-1", 600)  # over the allowance
    assert not portal.is_allowed("mac-1")


def test_portal_time_allowance():
    clock = {"now": 0.0}
    portal = CaptivePortal(clock=lambda: clock["now"])
    portal.issue_voucher("DAY", time_allowance_s=3600.0)
    portal.login("mac-1", "DAY")
    clock["now"] = 1800.0
    assert portal.is_allowed("mac-1")
    clock["now"] = 4000.0
    assert not portal.is_allowed("mac-1")


def test_portal_rejects_unknown_and_duplicate_vouchers():
    portal = CaptivePortal()
    with pytest.raises(PortalError):
        portal.login("mac-1", "NOPE")
    portal.issue_voucher("X")
    with pytest.raises(PortalError):
        portal.issue_voucher("X")
