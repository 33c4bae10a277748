"""One access procedure set for every RAT.

S1AP, NGAP and RADIUS are translators onto ``AccessManagement``, so what
the generic procedures do - overload shedding, the attach counters, the
``mme.*`` spans and the crash wipe of the one UE-context table - must hold
on LTE, 5G and WiFi alike.
"""

import gc

from repro.deploy import build, subscriber_keys
from repro.fiveg import Ue5g, nas5g
from repro.net import RpcChannel
from repro.obs import Tracer
from repro.obs.analysis import build_traces
from repro.wifi import eap
from repro.wifi.radius import (
    AccessReject,
    AccessRequest,
    EapStartRequest,
    RADIUS_SERVICE,
)


def multirat_site(num_subscribers=6, **kwargs):
    """An AGW with an eNodeB, a gNB and a WiFi AP; returns
    ``(site, gnb, ap)``."""
    site = build(num_ues=num_subscribers, rats=("5g", "wifi"), **kwargs)
    return site, site.gnbs[0], site.aps[0]


def ue5g(site, gnb, index):
    k, opc = subscriber_keys(index + 1)
    return Ue5g(site.sim, site.imsis[index], k, opc, gnb)


def settle(site, event, limit=60.0):
    value = site.sim.run_until_triggered(event, limit=site.sim.now + limit)
    site.sim.run(until=site.sim.now + 2.0)
    return value


def radius_call(site, method, request):
    channel = RpcChannel(site.sim, site.network, "ap-1", "agw-1")
    return settle(site, channel.call(RADIUS_SERVICE, method, request))


# -- the crash wipe covers every RAT ------------------------------------------------


def test_crash_wipes_5g_registrations_and_eap_challenges():
    """NAS state is ephemeral (§3.4): after a fail-stop crash neither a
    5G registration nor an outstanding EAP challenge survives."""
    site, gnb, ap = multirat_site()
    agw = site.agw
    ue = ue5g(site, gnb, 0)
    assert settle(site, ue.register())
    wifi_user = site.imsis[1]
    challenge = radius_call(site, "eap_start", EapStartRequest(
        username=wifi_user, ap_id="ap-1", client_mac="m"))

    agw.crash()
    agw.recover()
    # The UE still believes it is registered; the AGW no longer does.
    assert not settle(site, ue.establish_pdu_session(), limit=30.0)
    assert agw.sessiond.session(ue.imsi) is None
    answer = radius_call(site, "access_request", AccessRequest(
        username=wifi_user, ap_id="ap-1", client_mac="m",
        nonce=challenge.nonce,
        eap_proof=eap.compute_proof(f"wifi-{wifi_user}", challenge.nonce)))
    assert isinstance(answer, AccessReject)
    assert agw.sessiond.session(wifi_user) is None
    assert agw.mme.contexts == {}


# -- one meaning of the attach counters ---------------------------------------------


def test_attach_counters_balance_across_rats_with_failures():
    """A request is counted at registration start, an accept when the UE
    is admitted, a reject at every refusal - on each RAT."""
    site, gnb, ap = multirat_site(num_subscribers=8)
    agw = site.agw
    lte_ok, lte_unknown, lte_wrong_key = site.ues[:3]
    agw.subscriberdb.delete(lte_unknown.imsi)
    lte_wrong_key.k = bytes(16)
    for ue in (lte_ok, lte_unknown, lte_wrong_key):
        settle(site, ue.attach())
    nr_ok, nr_unknown = ue5g(site, gnb, 3), ue5g(site, gnb, 4)
    agw.subscriberdb.delete(nr_unknown.imsi)
    assert settle(site, nr_ok.register())
    assert settle(site, nr_ok.establish_pdu_session())
    assert not settle(site, nr_unknown.register())
    for username, secret in ((site.imsis[5], f"wifi-{site.imsis[5]}"),
                             (site.imsis[6], "wrong-secret"),
                             ("001010999999999", "whatever")):
        settle(site, ap.connect(username, secret))

    stats = agw.mme.stats
    assert stats["attach_requests"] == 8
    assert stats["attach_accepted"] == 3   # one per RAT; PDU sessions apart
    assert stats["attach_rejected"] == 5
    assert stats["attach_requests"] == \
        stats["attach_accepted"] + stats["attach_rejected"]


def test_health_reports_the_wifi_reject_fraction():
    site = build(num_ues=12, rats=("wifi",))
    ap = site.aps[0]
    for n, username in enumerate(site.imsis):
        secret = f"wifi-{username}" if n % 2 else "wrong-secret"
        settle(site, ap.connect(username, secret))
    assert site.agw.mme.stats["attach_requests"] == 12
    checks = {c.name: c for c in site.agw.health.evaluate()}
    assert checks["attach-rejects"].detail == "6/12 rejected"
    assert not checks["attach-rejects"].healthy


# -- overload shedding --------------------------------------------------------------


def overloaded(site):
    """Any queued control-plane work now counts as overload."""
    site.agw.context.config.mme_max_pending = 0


def test_overload_sheds_5g_registrations_with_congestion():
    site, gnb, ap = multirat_site()
    ue = ue5g(site, gnb, 0)
    received = []
    deliver = ue.deliver_nas
    ue.deliver_nas = lambda message: (received.append(message),
                                      deliver(message))
    overloaded(site)
    assert not settle(site, ue.register())
    assert [type(m) for m in received] == [nas5g.RegistrationReject]
    assert received[0].cause == "congestion"
    stats = site.agw.mme.stats
    assert stats["overload_drops"] == 1
    assert stats["attach_rejected"] == 1
    assert site.agw.ngap.stats["registration_rejects"] == 1


def test_overload_sheds_eap_access_requests():
    site, gnb, ap = multirat_site()
    username = site.imsis[0]
    challenge = radius_call(site, "eap_start", EapStartRequest(
        username=username, ap_id="ap-1", client_mac="m"))
    overloaded(site)
    answer = radius_call(site, "access_request", AccessRequest(
        username=username, ap_id="ap-1", client_mac="m",
        nonce=challenge.nonce,
        eap_proof=eap.compute_proof(f"wifi-{username}", challenge.nonce)))
    assert isinstance(answer, AccessReject)
    assert answer.cause == "congestion"
    stats = site.agw.mme.stats
    assert stats["overload_drops"] == 1
    assert stats["attach_requests"] == stats["attach_rejected"] == 1
    assert site.agw.sessiond.session(username) is None


# -- the generic spans under every RAT's root ---------------------------------------


def test_5g_and_wifi_procedures_trace_like_an_lte_attach():
    site, gnb, ap = multirat_site()
    tracer = Tracer(site.sim, site.rng)
    ue = ue5g(site, gnb, 0)
    assert settle(site, ue.register())
    assert settle(site, ue.establish_pdu_session())
    assert settle(site, ap.connect(site.imsis[1],
                                   f"wifi-{site.imsis[1]}")).connected
    traces = {}
    for trace in build_traces(tracer.spans):
        traces.setdefault(trace.name, []).append(trace)
    for root, expected in (("register", {"mme.attach_stage1",
                                         "mme.attach_stage2"}),
                           ("pdu_session", {"mme.attach_stage3",
                                            "sessiond.create_session"}),
                           ("eap", {"mme.attach_stage2",
                                    "sessiond.create_session"})):
        assert len(traces[root]) == 1, root
        trace = traces[root][0]
        assert trace.complete and trace.root.status == "ok"
        assert expected <= {span.name for span in trace.spans}, root


def test_a_guarded_attach_and_registration_leave_no_garbage_cycle():
    # Each procedure races its outcome against a guard event that never
    # triggers once the procedure wins; the race must not keep a cycle
    # through the guard's callback list alive, or every procedure leaves
    # garbage that only a collection pass frees.
    site, gnb, _ap = multirat_site()
    nr = ue5g(site, gnb, 2)
    gc.collect()
    gc.disable()
    try:
        assert settle(site, site.ues[0].attach())
        assert settle(site, nr.register())
        assert gc.collect() == 0
    finally:
        gc.enable()
