"""Edge cases for the RAN models (eNodeB, gNB, 5G UE) and RPC internals."""

from dataclasses import astuple
from types import SimpleNamespace

import pytest

from repro.deploy import build, subscriber_keys
from repro.fiveg import Gnb, Ue5g, Ue5gState, ngap
from repro.lte import CellCapacityError, CellConfig, Enodeb, Ue, make_imsi, s1ap
from repro.net import Link, Network, RpcChannel, RpcError, RpcServer
from repro.sim import RngRegistry, Simulator


# -- eNodeB edges -------------------------------------------------------------------


def test_enb_rejects_rrc_before_s1_setup():
    site = build(num_enbs=0)
    enb = Enodeb(site.sim, site.network, "enb-1", "agw-1")
    ue = Ue(site.sim, site.imsis[0], *subscriber_keys(1), enb)
    with pytest.raises(CellCapacityError, match="S1 not established"):
        enb.rrc_connect(ue)
    assert enb.stats["rrc_rejects"] == 1


def test_enb_rrc_connect_idempotent():
    site = build(num_ues=1)
    context1 = site.enbs[0].rrc_connect(site.ues[0])
    context2 = site.enbs[0].rrc_connect(site.ues[0])
    assert context1 is context2
    assert list(site.enbs[0].cell.allocate()) == [site.ues[0].imsi]


def test_enb_uplink_after_release_is_dropped():
    from repro.lte import nas
    site = build(num_ues=1)
    ue = site.ues[0]
    site.enbs[0].rrc_connect(ue)
    site.enbs[0].rrc_release(ue)
    before = site.enbs[0].stats["uplink_nas"]
    site.enbs[0].uplink_nas(ue, nas.AttachRequest(imsi=ue.imsi))
    assert site.enbs[0].stats["uplink_nas"] == before


def test_enb_downlink_for_unknown_ue_reports_undelivered():
    from repro.lte import s1ap
    site = build(num_ues=1)
    result = site.enbs[0]._on_downlink_nas(
        s1ap.DownlinkNasTransport(enb_ue_id=999, mme_ue_id=1, nas=None))
    assert result == {"delivered": False}


def test_enb_context_setup_for_unknown_ue_fails():
    from repro.lte import s1ap
    site = build(num_ues=1)
    response = site.enbs[0]._on_initial_context_setup(
        s1ap.InitialContextSetupRequest(
            enb_ue_id=999, mme_ue_id=1, ue_agg_max_bitrate_mbps=1.0,
            agw_teid=1, agw_address="agw-1"))
    assert not response.success


def test_enb_s1_path_failure_with_no_ues_is_noop():
    site = build(num_ues=0)
    site.enbs[0].s1_path_failure()  # must not raise


# -- 5G UE edges --------------------------------------------------------------------


def build_5g():
    sim = Simulator()
    network = Network(sim, RngRegistry(5))
    from repro.core.agw import AccessGateway, SubscriberProfile
    from repro.net import backhaul
    agw = AccessGateway(sim, network, "agw-1")
    network.connect("gnb-1", "agw-1", backhaul.lan())
    gnb = Gnb(sim, network, "gnb-1", "agw-1")
    gnb.ng_setup()
    sim.run(until=1.0)
    imsi = make_imsi(1)
    k, opc = subscriber_keys(1)
    agw.subscriberdb.upsert(SubscriberProfile(imsi=imsi, k=k, opc=opc))
    ue = Ue5g(sim, imsi, k, opc, gnb)
    return sim, network, agw, gnb, ue


def test_5g_register_twice_second_rejected_fast():
    sim, network, agw, gnb, ue = build_5g()
    ok = sim.run_until_triggered(ue.register(), limit=60.0)
    assert ok
    second = ue.register()
    assert sim.run_until_triggered(second, limit=sim.now + 5.0) is False


def test_5g_pdu_twice_second_fails_fast():
    sim, network, agw, gnb, ue = build_5g()
    sim.run_until_triggered(ue.register(), limit=60.0)
    sim.run_until_triggered(ue.establish_pdu_session(), limit=sim.now + 60.0)
    second = ue.establish_pdu_session()
    assert sim.run_until_triggered(second, limit=sim.now + 5.0) is False


def test_5g_register_times_out_when_agw_down():
    sim, network, agw, gnb, ue = build_5g()
    network.set_node_up("agw-1", False)
    ok = sim.run_until_triggered(ue.register(), limit=60.0)
    assert not ok
    assert ue.state == Ue5gState.DEREGISTERED


def test_5g_deregister_before_register_is_noop():
    sim, network, agw, gnb, ue = build_5g()
    ue.deregister()  # must not raise
    assert ue.state == Ue5gState.DEREGISTERED


def test_gnb_rejects_before_ng_setup():
    sim = Simulator()
    network = Network(sim, RngRegistry(5))
    network.add_node("core")
    gnb = Gnb(sim, network, "gnb-x", "core")
    imsi = make_imsi(1)
    k, opc = subscriber_keys(1)
    ue = Ue5g(sim, imsi, k, opc, gnb)
    with pytest.raises(CellCapacityError):
        gnb.rrc_connect(ue)


# -- one RAN node, two RATs ---------------------------------------------------------

#: Per RAT: the node, its setup call and the core's answer, the rejection
#: text, the uplink and downlink wrappers, the first TEID, and a bearer
#: setup (node, RAN UE id) -> RAN-side TEID.
RATS = {
    "enodeb": SimpleNamespace(
        node=Enodeb, setup="s1_setup", service=s1ap.S1AP_SERVICE,
        accepted=s1ap.S1SetupResponse(mme_name="core", served_plmn="00101"),
        rejected="S1 not established", initial=s1ap.InitialUeMessage,
        transport=s1ap.UplinkNasTransport,
        downlink=s1ap.DownlinkNasTransport, teid_base=0x2000,
        bearer=lambda node, ran_ue_id: node._on_initial_context_setup(
            s1ap.InitialContextSetupRequest(
                enb_ue_id=ran_ue_id, mme_ue_id=7, ue_agg_max_bitrate_mbps=1.0,
                agw_teid=0x99, agw_address="core")).enb_teid),
    "gnb": SimpleNamespace(
        node=Gnb, setup="ng_setup", service=ngap.NGAP_SERVICE,
        accepted=ngap.NgSetupResponse(amf_name="core"),
        rejected="NG not established", initial=ngap.InitialUeMessage5g,
        transport=ngap.UplinkNasTransport5g,
        downlink=ngap.DownlinkNasTransport5g, teid_base=0x3000,
        bearer=lambda node, ran_ue_id: node._on_pdu_session_setup(
            ngap.PduSessionResourceSetupRequest(
                ran_ue_id=ran_ue_id, amf_ue_id=7, pdu_session_id=1,
                agw_teid=0x99, agw_address="core")).gnb_teid),
}


def radio_ue(index):
    """What a RAN node needs of a UE: an IMSI and a NAS receiver."""
    delivered = []
    return SimpleNamespace(imsi=make_imsi(index), delivered=delivered,
                           deliver_nas=delivered.append)


@pytest.mark.parametrize("name", sorted(RATS))
def test_ran_node_admits_relays_and_anchors_for_each_rat(name):
    rat = RATS[name]
    sim = Simulator()
    network = Network(sim, RngRegistry(5))
    network.connect("ran-1", "core", Link(latency=0.001))
    core = RpcServer(sim, network, "core")
    uplinks = []
    core.register(rat.service, "setup", lambda request: rat.accepted)
    core.register(rat.service, "uplink",
                  lambda message: uplinks.append(message) or {})
    node = rat.node(sim, network, "ran-1", "core",
                    cell_config=CellConfig(max_active_ues=1))
    first, second = radio_ue(1), radio_ue(2)

    # Admission: refused (and counted) before setup and when the cell is full.
    with pytest.raises(CellCapacityError, match=rat.rejected):
        node.rrc_connect(first)
    getattr(node, rat.setup)()
    sim.run(until=1.0)
    context = node.rrc_connect(first)
    with pytest.raises(CellCapacityError, match="cell full"):
        node.rrc_connect(second)
    assert node.stats["rrc_rejects"] == 2

    # Relay: an initial message first, then transports carrying the core's
    # UE id learned from the downlink.
    node.uplink_nas(first, "attach")
    sim.run(until=2.0)
    assert type(uplinks[-1]) is rat.initial
    assert astuple(uplinks[-1])[:3] == ("ran-1", context.ran_ue_id, "attach")
    assert node._on_downlink_nas(
        rat.downlink(context.ran_ue_id, 42, "challenge")) == \
        {"delivered": True}
    node.uplink_nas(first, "answer")
    sim.run(until=3.0)
    assert first.delivered == ["challenge"]
    assert type(uplinks[-1]) is rat.transport
    assert astuple(uplinks[-1]) == ("ran-1", context.ran_ue_id, 42, "answer")

    # Bearer anchoring: the TEID comes from the node's base and is freed
    # on release for the next UE.
    assert rat.bearer(node, context.ran_ue_id) == rat.teid_base
    node.rrc_release(first)
    context = node.rrc_connect(second)
    assert rat.bearer(node, context.ran_ue_id) == rat.teid_base


# -- RPC server internals ---------------------------------------------------------------


def test_rpc_in_flight_duplicate_not_reprocessed():
    """A retransmitted request arriving while the generator handler is
    still running must not start a second handler."""
    sim = Simulator()
    network = Network(sim, RngRegistry(1))
    network.connect("c", "s", Link(latency=0.01))
    server = RpcServer(sim, network, "s")
    started = []

    def slow(request):
        started.append(request)
        yield sim.timeout(2.0)
        return "done"

    server.register("svc", "slow", slow)
    channel = RpcChannel(sim, network, "c", "s")
    results = []

    def caller(sim):
        response = yield channel.call("svc", "slow", "x", deadline=10.0)
        results.append(response)

    sim.spawn(caller(sim))
    sim.run(until=20.0)
    assert results == ["done"]
    assert len(started) == 1              # deduplicated while in flight
    assert server.stats["duplicates"] > 0  # retries did arrive


def echo_site(latency):
    """A client and an echo server one hop apart; ``calls`` logs every
    request the handler runs."""
    sim = Simulator()
    network = Network(sim, RngRegistry(1))
    network.connect("c", "s", Link(latency=latency))
    server = RpcServer(sim, network, "s")
    calls = []
    server.register("svc", "echo", lambda r: calls.append(r) or r)
    return sim, server, RpcChannel(sim, network, "c", "s"), calls


def test_rpc_duplicate_before_expiry_is_answered_from_cache():
    # 0.2 s each way: the retransmission sent at 0.25 reaches the server
    # at 0.45, after its reply and before the call's 1.0 s expiry.
    sim, server, channel, calls = echo_site(latency=0.2)
    done = channel.call("svc", "echo", "x", deadline=1.0)
    sim.run(until=0.9)
    assert done.value == "x"
    assert calls == ["x"]
    assert server.stats["duplicates"] == 1
    assert len(server._response_cache) == 1


def test_rpc_reply_cache_drops_replies_past_their_deadline():
    sim, server, channel, calls = echo_site(latency=0.001)
    for index in range(200):
        channel.call("svc", "echo", index, deadline=1.0)
        sim.run(until=sim.now + 0.1)
        # Replies whose 1 s deadline has passed are gone once the next
        # request arrives: at most the last ten calls' stay.
        assert len(server._response_cache) <= 11
    assert calls == list(range(200))
    sim.run(until=sim.now + 2.0)
    last = channel.call("svc", "echo", "last", deadline=1.0)
    sim.run(until=sim.now + 0.1)
    assert last.value == "last"
    assert len(server._response_cache) == 1


def test_rpc_request_arriving_after_its_expiry_runs_no_handler():
    # Sent once (a retransmission would land past the deadline) and
    # delivered at 0.5, 0.3 s after the call expired.
    sim, server, channel, calls = echo_site(latency=0.5)
    done = channel.call("svc", "echo", "x", deadline=0.2)
    sim.run(until=2.0)
    assert isinstance(done.value, RpcError)
    assert done.value.code == RpcError.DEADLINE_EXCEEDED
    assert calls == []
    assert server.stats["expired"] == 1
    assert server.stats["requests"] == 0
    assert len(server._response_cache) == 0


def test_rpc_error_str():
    error = RpcError(RpcError.DEADLINE_EXCEEDED, "too slow")
    assert "DEADLINE_EXCEEDED" in str(error)
    assert error.detail == "too slow"
    bare = RpcError(RpcError.INTERNAL)
    assert str(bare) == "INTERNAL"
