"""Per-RAT downlink transcripts, pinned.

One AGW serves an eNodeB pair, a gNB and a WiFi AP.  Every procedure the
three access frontends translate is driven once, one after another: LTE
attach / idle / paging + service request / handover / detach, 5G
registration / PDU session / release / deregistration, WiFi EAP-start /
Access-Request / Accounting-Stop, and the unknown-subscriber and
wrong-key rejects on each RAT.  Each UE's ``(sim time, downlink message
type)`` sequence must equal the golden below, so a change to how a
frontend maps its protocol onto ``AccessManagement`` cannot move, add or
drop a downlink message, or shift its timing, unnoticed.

LTE and 5G downlinks are recorded where the UE receives them (NAS
delivery and paging); WiFi ones where the AGW puts its RADIUS replies on
the network.
The RAN-facing half (S1AP/NGAP requests each eNodeB and the gNB serve,
and the AGW's non-trivial replies to them) is pinned per RAN node.
"""

from repro.deploy import build, subscriber_keys
from repro.fiveg import Gnb, Ue5g
from repro.net import backhaul
from repro.net.rpc import RPC_PORT
from repro.wifi.radius import AccessAccept

UNKNOWN_WIFI_USER = "001010999999999"


def _stamp(sim):
    return round(sim.now, 9)


def _recording(log, label, sim, deliver):
    def deliver_and_record(message):
        log.setdefault(label, []).append((_stamp(sim), type(message).__name__))
        return deliver(message)
    return deliver_and_record


def run_transcripts():
    site = build(num_enbs=2, num_ues=8, rats=("wifi",))
    sim, agw = site.sim, site.agw
    log = {}

    def step(event, settle=2.0):
        value = sim.run_until_triggered(event, limit=sim.now + 60.0)
        sim.run(until=sim.now + settle)
        return value

    lte = {"lte": site.ues[0], "lte-unknown": site.ues[1],
           "lte-wrong-key": site.ues[2]}
    for label, ue in lte.items():
        ue.deliver_nas = _recording(log, label, sim, ue.deliver_nas)

        def paged(label=label, real=ue.on_paged):
            log.setdefault(label, []).append((_stamp(sim), "Paging"))
            real()
        ue.on_paged = paged

    site.network.connect("gnb-1", agw.node, backhaul.lan("lan-gnb"))
    gnb = Gnb(sim, site.network, "gnb-1", agw.node)
    gnb.ng_setup()
    sim.run(until=sim.now + 1.0)
    nr = {}
    for label, index in (("nr", 3), ("nr-unknown", 4), ("nr-wrong-key", 5)):
        k, opc = subscriber_keys(index + 1)
        ue = nr[label] = Ue5g(sim, site.imsis[index], k, opc, gnb)
        ue.deliver_nas = _recording(log, label, sim, ue.deliver_nas)

    for ran in (*site.enbs, gnb):
        handlers = ran._server._handlers
        log[ran._server.node] = []
        for key, handler in list(handlers.items()):
            handlers[key] = _recording(log, ran._server.node, sim, handler)

    ap = site.aps[0]
    wifi = {site.imsis[6]: "wifi", site.imsis[7]: "wifi-wrong-key",
            UNKNOWN_WIFI_USER: "wifi-unknown"}
    users_by_session = {}
    network = site.network
    send = network.send

    def send_and_record(dgram):
        # Every datagram the AGW sends to a port other than the RPC port
        # is its RPC server's reply to a caller's channel.
        if dgram.src != agw.node or dgram.port == RPC_PORT:
            return send(dgram)
        _request_id, _status, value = dgram.payload
        node = dgram.dst
        if node in log and not isinstance(value, dict):
            log[node].append((_stamp(sim), type(value).__name__))
        elif node == ap.ap_id:
            user = getattr(value, "username", None) or \
                users_by_session.get(getattr(value, "session_id", None))
            if isinstance(value, AccessAccept):
                users_by_session[value.session_id] = user
            log.setdefault(wifi[user], []).append(
                (_stamp(sim), type(value).__name__))
        return send(dgram)
    network.send = send_and_record

    ue = lte["lte"]
    assert step(ue.attach()).success
    ue.go_idle()
    sim.run(until=sim.now + 2.0)
    assert agw.page(ue.imsi)
    sim.run(until=sim.now + 3.0)
    assert ue.is_registered
    assert step(ue.handover_to(site.enbs[1]))
    assert step(ue.detach(switch_off=False))
    agw.subscriberdb.delete(lte["lte-unknown"].imsi)
    assert not step(lte["lte-unknown"].attach()).success
    lte["lte-wrong-key"].k = bytes(16)
    assert not step(lte["lte-wrong-key"].attach()).success

    ue = nr["nr"]
    assert step(ue.register())
    assert step(ue.establish_pdu_session())
    assert step(ue.release_pdu_session())
    assert step(ue.establish_pdu_session())
    ue.deregister()
    sim.run(until=sim.now + 2.0)
    agw.subscriberdb.delete(nr["nr-unknown"].imsi)
    assert not step(nr["nr-unknown"].register())
    nr["nr-wrong-key"].k = bytes(16)
    assert not step(nr["nr-wrong-key"].register())

    user = site.imsis[6]
    assert step(ap.connect(user, f"wifi-{user}")).connected
    ap.disconnect(user)
    sim.run(until=sim.now + 2.0)
    assert not step(ap.connect(site.imsis[7], "wrong-secret")).connected
    assert not step(ap.connect(UNKNOWN_WIFI_USER, "whatever")).connected
    return log


#: Captured before the frontends became translators onto one procedure set.
GOLDEN = {
    "enb-1": [
        (2.520416, "DownlinkNasTransport"),
        (2.760832, "DownlinkNasTransport"),
        (3.101248, "InitialContextSetupRequest"),
        (7.121456, "Paging"),
        (7.163872, "InitialContextSetupRequest"),
        (17.22292, "DownlinkNasTransport"),
    ],
    "enb-2": [
        (10.121456, "PathSwitchRequestAck"),
        (12.142088, "DownlinkNasTransport"),
        (12.142096, "UeContextReleaseCommand"),
        (14.682504, "DownlinkNasTransport"),
    ],
    "gnb-1": [
        (19.763336, "DownlinkNasTransport5g"),
        (20.003752, "DownlinkNasTransport5g"),
        (20.044176, "DownlinkNasTransport5g"),
        (22.384592, "PduSessionResourceSetupRequest"),
        (24.425016, "DownlinkNasTransport5g"),
        (26.765432, "PduSessionResourceSetupRequest"),
        (31.305848, "DownlinkNasTransport5g"),
        (33.846264, "DownlinkNasTransport5g"),
    ],
    "lte": [
        (2.540416, "AuthenticationRequest"),
        (2.780832, "SecurityModeCommand"),
        (3.121248, "AttachAccept"),
        (7.141456, "Paging"),
        (7.183872, "ServiceAccept"),
        (12.162088, "DetachAccept"),
    ],
    "lte-unknown": [
        (14.702504, "AttachReject"),
    ],
    "lte-wrong-key": [
        (17.24292, "AuthenticationRequest"),
    ],
    "nr": [
        (19.783336, "AuthenticationRequest5g"),
        (20.023752, "SecurityModeCommand5g"),
        (20.064176, "RegistrationAccept"),
        (22.404592, "PduSessionEstablishmentAccept"),
        (24.445016, "PduSessionReleaseComplete"),
        (26.785432, "PduSessionEstablishmentAccept"),
    ],
    "nr-unknown": [
        (31.325848, "RegistrationReject"),
    ],
    "nr-wrong-key": [
        (33.866264, "AuthenticationRequest5g"),
    ],
    "wifi": [
        (35.866472, "EapChallengeResponse"),
        (36.866888, "AccessAccept"),
        (38.867304, "AccountingResponse"),
    ],
    "wifi-unknown": [
        (43.868136, "EapChallengeResponse"),
        (44.868552, "AccessReject"),
    ],
    "wifi-wrong-key": [
        (40.867304, "EapChallengeResponse"),
        (41.86772, "AccessReject"),
    ],
}


def test_every_rat_sends_the_pinned_downlinks_at_the_pinned_times():
    assert run_transcripts() == GOLDEN
