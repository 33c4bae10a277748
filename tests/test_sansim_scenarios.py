"""SimSan regression gates for the PR 6 / this-PR timer-leak fixes.

Each scenario drives a full control-procedure path that used to leak
timers (idle/paging/service-request guards, handover, 5G registration,
GTP-C and reliable-transport retry timers), drains the sim under the
runtime sanitizer, and asserts zero reports: no orphaned timers and no
cross-process RNG interleaving.

A reintroduced leak — e.g. reverting a finally-revoke or dropping a
retry-timer cancel on the response path — fails these with the creation
stack of the leaked ``schedule()`` call in the assertion message.
"""

from repro.deploy import build
from repro.lte import UeState
from repro.sim.sansim import SimSan


def assert_clean(san):
    assert san.ok, "\n".join(
        f"{r['code']} {r['check']}: {r['message']}\n{r.get('stack') or ''}"
        for r in san.reports)


def attach(site, index=0):
    ue = site.ues[index]
    assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    return ue


def test_attach_idle_paging_sr_detach_cycle_is_sanitizer_clean():
    san = SimSan()
    site = build(num_ues=2, sanitizer=san)
    ue = attach(site, 0)
    ue.go_idle()
    site.sim.run(until=site.sim.now + 2.0)
    assert ue.state == UeState.IDLE
    # Paging wakes the UE: the SR guard timer must be revoked on the
    # winning path (the PR 6 bug class).
    assert site.agw.page(ue.imsi)
    site.sim.run(until=site.sim.now + 30.0)
    assert ue.state == UeState.REGISTERED
    done = ue.detach()
    site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    site.sim.run(until=site.sim.now + 30.0)  # past every guard window
    assert_clean(san)


def test_detach_guard_timer_is_cancelled_when_detach_wins():
    san = SimSan()
    site = build(num_ues=1, sanitizer=san)
    ue = attach(site)
    done = ue.detach(switch_off=False)
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    assert ok
    # The 5 s detach guard must not survive as an orphan once its owner
    # (the detach procedure) completed.
    site.sim.run(until=site.sim.now + 10.0)
    assert_clean(san)


def test_handover_roundtrip_is_sanitizer_clean():
    san = SimSan()
    site = build(num_enbs=2, num_ues=1, sanitizer=san)
    ue = attach(site)
    for target in (site.enbs[1], site.enbs[0]):
        done = ue.handover_to(target)
        ok = site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
        assert ok
        site.sim.run(until=site.sim.now + 2.0)
    site.sim.run(until=site.sim.now + 30.0)
    assert_clean(san)


def test_5g_registration_session_deregistration_is_sanitizer_clean():
    san = SimSan()
    site = build(num_enbs=0, num_ues=1, rats=("5g",), sanitizer=san)
    ue = site.ues[0]
    done = ue.register()
    assert site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    done = ue.establish_pdu_session()
    assert site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    ue.deregister()
    site.sim.run(until=site.sim.now + 30.0)
    assert_clean(san)


def test_wifi_connect_and_accounting_stop_is_sanitizer_clean():
    san = SimSan()
    site = build(num_ues=2, rats=("wifi",), sanitizer=san)
    ap = site.aps[0]
    for username, secret in ((site.imsis[0], f"wifi-{site.imsis[0]}"),
                             (site.imsis[1], "wrong-secret")):
        done = ap.connect(username, secret)
        state = site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
        assert state.connected == (secret != "wrong-secret")
    ap.disconnect(site.imsis[0])
    site.sim.run(until=site.sim.now + 30.0)
    assert site.agw.sessiond.session(site.imsis[0]) is None
    assert_clean(san)


def test_gtp_and_transport_retry_timers_cancelled_on_response():
    """Attach exercises GTP-C echo/create-session and the reliable
    channel: every retry timer armed for a message that got its response
    must be cancelled, not left to rot for its full backoff window."""
    san = SimSan()
    site = build(num_enbs=2, num_ues=4, sanitizer=san)
    for index in range(4):
        attach(site, index)
    site.sim.run(until=site.sim.now + 60.0)
    assert_clean(san)
