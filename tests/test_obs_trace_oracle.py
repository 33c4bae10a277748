"""Every span of one traced multi-RAT run, pinned.

One orchestrated site runs the procedures a trace has to show: on LTE an
attach, idle with a network-triggered and a UE-triggered service request,
a handover and a detach; on 5G a registration and a PDU session; on WiFi
an EAP connect, a disconnect and a rejected connect; and magmad's
check-ins and checkpoints throughout.  Each span contributes its ids,
parent, names, clock bounds, status and tags to one digest, pinned from
the code before spans closed inline on their events: how a span is opened
or closed may change, but no span of this run may move.
"""

import hashlib

from repro.core.agw import AgwConfig, SubscriberProfile
from repro.deploy import build, subscriber_keys
from repro.fiveg import Ue5g
from repro.obs import Tracer

#: sha256 of the span rows below, taken when spans closed in a kernel
#: callback scheduled by their event.  Re-taken when the check-in bundle
#: dropped its shared-registry keys: only the 39 check-in rows moved
#: (their bundles changed size, so each exchange, and the next one's
#: start, shifted by under 4 ms).
TRACE_DIGEST = ("7307056b0c4ec0b737952ac439e840ff"
                "3130e2e882e22217dc2431024d3b81e2")


def span_row(span):
    return (span.name, span.trace_id, span.span_id, span.parent_id,
            span.component, span.node, span.start, span.end_time,
            span.status, sorted(span.tags.items()))


def traced_run():
    """The scenario above; returns the tracer."""
    site = build(num_enbs=2, num_ues=3, rats=("5g", "wifi"),
                 backhaul="fiber", config=AgwConfig(checkin_interval=5.0))
    sim = site.sim
    tracer = Tracer(sim, site.rng)
    wifi_user = site.imsis[2]
    k, opc = subscriber_keys(3)
    site.orc.add_subscriber(SubscriberProfile(imsi=wifi_user, k=k, opc=opc,
                                              wifi_secret="pw"))
    sim.run(until=6.0)                               # the first check-in

    def settle(event):
        value = sim.run_until_triggered(event, limit=sim.now + 60.0)
        sim.run(until=sim.now + 2.0)
        return value

    ue = site.ues[0]
    assert settle(ue.attach()).success
    ue.go_idle()
    sim.run(until=sim.now + 2.0)
    assert site.agw.page(ue.imsi)
    sim.run(until=sim.now + 10.0)
    ue.go_idle()
    sim.run(until=sim.now + 2.0)
    assert settle(ue.service_request())
    assert settle(ue.handover_to(site.enbs[1]))
    assert settle(ue.detach())
    k, opc = subscriber_keys(2)
    nr = Ue5g(sim, site.imsis[1], k, opc, site.gnbs[0])
    assert settle(nr.register())
    assert settle(nr.establish_pdu_session())
    ap = site.aps[0]
    assert settle(ap.connect(wifi_user, "pw")).connected
    ap.disconnect(wifi_user)
    sim.run(until=sim.now + 2.0)
    assert not settle(ap.connect(wifi_user, "wrong")).connected
    sim.run(until=sim.now + 10.0)
    return tracer


def test_every_span_of_a_multirat_run_matches_the_pinned_trace():
    tracer = traced_run()
    roots = [span.name for span in tracer.spans if span.parent_id is None]
    for name in ("attach", "go_idle", "paging", "service_request",
                 "handover", "detach", "register", "pdu_session", "eap",
                 "magmad.checkin"):
        assert name in roots, name
    assert all(span.finished for span in tracer.spans)
    statuses = {(span.name, span.status) for span in tracer.spans
                if span.parent_id is None}
    assert ("eap", "ok") in statuses and ("eap", "error") in statuses
    rows = repr([span_row(span) for span in tracer.spans])
    assert hashlib.sha256(rows.encode()).hexdigest() == TRACE_DIGEST
