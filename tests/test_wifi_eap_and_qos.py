"""EAP exchange units + QCI->DSCP QoS marking."""

from repro.core.agw import SubscriberDb, SubscriberProfile
from repro.wifi import eap


def test_eap_proof_roundtrip():
    """The AGW expects exactly the proof the supplicant computes."""
    db = SubscriberDb()
    db.upsert(SubscriberProfile(imsi="user1", wifi_secret="secret"))
    nonce = eap.make_nonce("user1", 1)
    proof = eap.compute_proof("secret", nonce)
    assert db.eap_proof("user1", nonce) == proof
    assert eap.compute_proof("wrong", nonce) != proof
    assert db.eap_proof("user1", eap.make_nonce("user1", 2)) != proof
    assert db.eap_proof("nobody", nonce) is None


def test_eap_proof_is_pinned_byte_for_byte():
    proof = eap.compute_proof("secret", eap.make_nonce("alice", 1))
    assert proof.hex() == ("9e00cfba38b2285985bff82dda0100aa"
                           "46a86c1f572bfbba87bf3f8a6675a97b")


def test_eap_nonces_unique_per_exchange():
    assert eap.make_nonce("u", 1) != eap.make_nonce("u", 2)
    assert eap.make_nonce("u", 1) != eap.make_nonce("v", 1)
    # But deterministic (replicable simulations).
    assert eap.make_nonce("u", 1) == eap.make_nonce("u", 1)


def test_radius_frontend_rejects_proof_without_challenge():
    """A forged AccessRequest with no outstanding challenge is rejected."""
    from repro.wifi.radius import AccessRequest

    from repro.deploy import build
    site = build(num_ues=1)
    from repro.net import backhaul, RpcChannel
    site.network.connect("ap-1", "agw-1", backhaul.lan())
    channel = RpcChannel(site.sim, site.network, "ap-1", "agw-1")
    username = site.imsis[0]
    results = []

    def forge(sim):
        response = yield channel.call(
            "radius", "access_request",
            AccessRequest(username=username, ap_id="ap-1",
                          client_mac="m", nonce=b"fake",
                          eap_proof=b"fake"))
        results.append(response)

    site.sim.spawn(forge(site.sim))
    site.sim.run(until=site.sim.now + 10.0)
    from repro.wifi.radius import AccessReject
    assert isinstance(results[0], AccessReject)
    assert "challenge" in results[0].cause


def test_eap_challenge_single_use():
    """Replaying a captured proof after the challenge was consumed fails."""
    from repro.deploy import build
    site = build(num_ues=1, rats=("wifi",))
    ap = site.aps[0]
    username = site.imsis[0]
    done = ap.connect(username, f"wifi-{username}")
    state = site.sim.run_until_triggered(done, limit=60.0)
    assert state.connected
    # The challenge was consumed: the client's context is registered, so
    # the same Access-Request replayed is refused.
    context = site.agw.mme.context_for(username)
    assert context.state == "registered"
    replay = site.agw.mme.authorize(site.agw.radius, "ap-1", username,
                                    context.challenge,
                                    eap.compute_proof(f"wifi-{username}",
                                                      context.challenge))
    assert site.sim.run_until_triggered(
        site.sim.spawn(replay), limit=60.0).cause == \
        "no outstanding EAP challenge"


def test_qci_dscp_marking_in_pipeline():
    from repro.core.agw import AgwContext, Pipelined
    from repro.dataplane import ip_packet
    from repro.net import Network
    from repro.sim import Simulator

    sim = Simulator()
    context = AgwContext(sim, Network(sim), "agw-q")
    pipelined = Pipelined(context)
    pipelined.install_session("imsi1", "10.128.0.9", 0x10, None, qci=1)
    pipelined.set_enb_tunnel("imsi1", 0x20, "enb-x")
    delivered = []
    pipelined.set_port_delivery("ran", delivered.append)
    # Downlink packet toward the UE gets EF marking (QCI 1 -> DSCP 46).
    pkt = ip_packet("8.8.8.8", "10.128.0.9")
    pipelined.switch.inject(pkt, "internet")
    assert len(delivered) == 1
    assert delivered[0].inner_ip().dscp == 46


def test_default_qci_unmarked():
    from repro.core.agw import AgwContext, Pipelined
    from repro.dataplane import ip_packet
    from repro.net import Network
    from repro.sim import Simulator

    sim = Simulator()
    context = AgwContext(sim, Network(sim), "agw-q2")
    pipelined = Pipelined(context)
    pipelined.install_session("imsi1", "10.128.0.9", 0x10, None, qci=9)
    pipelined.set_enb_tunnel("imsi1", 0x20, "enb-x")
    delivered = []
    pipelined.set_port_delivery("ran", delivered.append)
    pkt = ip_packet("8.8.8.8", "10.128.0.9")
    pipelined.switch.inject(pkt, "internet")
    assert delivered[0].inner_ip().dscp == 0


def test_policy_qci_reaches_dataplane_end_to_end():
    from repro.core.policy import PolicyRule
    from repro.deploy import build
    site = build(
        num_ues=1,
        policy=PolicyRule(policy_id="voice",
                          rate_limit_mbps=1.0, qci=1))
    ue = site.ues[0]
    outcome = site.run_attach(ue)
    assert outcome.success
    site.sim.run(until=site.sim.now + 2.0)
    from repro.dataplane import ip_packet
    delivered = []
    site.agw.pipelined.set_port_delivery("ran", delivered.append)
    pkt = ip_packet("8.8.8.8", ue.ip_address)
    site.agw.pipelined.switch.inject(pkt, "internet")
    assert delivered[0].inner_ip().dscp == 46
