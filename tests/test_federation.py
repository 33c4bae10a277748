"""Federation: FeG, partner MNO core, GTP-A, and the three deployment modes."""

import pytest

from repro.core.agw import AgwConfig, SubscriberProfile
from repro.core.federation import (
    DeploymentMode,
    FederationGateway,
    user_plane_egress,
    validate_mode,
)
from repro.core.federation.gtp_aggregator import GtpAggregator
from repro.core.federation.mno_core import PartnerMnoCore
from repro.core.policy import rate_limited
from repro.core.policy.ocs import OnlineChargingSystem
from repro.deploy import subscriber_keys
from repro.lte import Enodeb, Ue, make_imsi
from repro.net import Network, backhaul
from repro.sim import RngRegistry, Simulator


def build_federated(mode=DeploymentMode.LOCAL_BREAKOUT, seed=1):
    """One AGW federated to a partner MNO through a FeG."""
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    mno = PartnerMnoCore(sim, network, "mno", rng=rng)
    network.connect("feg", "mno", backhaul.fiber())
    feg = FederationGateway(sim, network, "feg", "mno")
    config = AgwConfig(deployment_mode=mode, feg_node="feg")
    network.connect("agw-1", "feg", backhaul.fiber())
    from repro.core.agw import AccessGateway
    agw = AccessGateway(sim, network, "agw-1", config=config, rng=rng)
    network.connect("enb-1", "agw-1", backhaul.lan())
    enb = Enodeb(sim, network, "enb-1", "agw-1")
    agw.start()
    enb.s1_setup()
    sim.run(until=1.0)
    # Roaming subscriber: provisioned at the MNO, NOT in Magma.
    imsi = make_imsi(7)
    k, opc = subscriber_keys(7)
    mno.provision(imsi, k, opc, policy=rate_limited("mno-gold", 25.0))
    ue = Ue(sim, imsi, k, opc, enb)
    return sim, network, mno, feg, agw, enb, ue


def test_mode_validation():
    assert validate_mode("standalone") == "standalone"
    with pytest.raises(ValueError):
        validate_mode("carrier-pigeon")


def test_user_plane_egress_selection():
    assert user_plane_egress(DeploymentMode.STANDALONE, False) == "sgi"
    assert user_plane_egress(DeploymentMode.LOCAL_BREAKOUT, True) == "sgi"
    assert user_plane_egress(DeploymentMode.HOME_ROUTED, True) == "gtpa"
    assert user_plane_egress(DeploymentMode.HOME_ROUTED, False) == "sgi"


def test_roaming_attach_via_feg():
    """Local-breakout roaming: auth and policy come from the MNO; the
    session and enforcement live in the AGW (§3.6)."""
    sim, network, mno, feg, agw, enb, ue = build_federated()
    done = ue.attach()
    outcome = sim.run_until_triggered(done, limit=60.0)
    assert outcome.success, outcome.cause
    sim.run(until=sim.now + 2.0)
    # The MNO answered S6a and Gx.
    assert mno.stats["s6a_requests"] == 1
    assert mno.stats["gx_requests"] == 1
    assert feg.stats["auth_requests"] == 1
    # The MNO's policy is enforced locally in the AGW.
    assert agw.admitted_downlink(ue.imsi, 100.0) == pytest.approx(25.0)
    # A roaming-cached profile exists, marked federated.
    profile = agw.subscriberdb.get(ue.imsi)
    assert profile is not None and profile.federated
    # Local breakout: the session egresses via SGi, not the GTP-A.
    assert not agw.sessiond.session(ue.imsi).home_routed


def test_roaming_5g_registration_via_feg():
    """A 5G roamer registers through the same FeG lookup as an LTE one:
    the auth vector comes from the MNO, and its PDU session gets the
    MNO's policy enforced locally."""
    from repro.fiveg import Gnb, Ue5g
    sim, network, mno, feg, agw, enb, ue = build_federated()
    network.connect("gnb-1", "agw-1", backhaul.lan("lan-gnb"))
    gnb = Gnb(sim, network, "gnb-1", "agw-1")
    gnb.ng_setup()
    sim.run(until=sim.now + 1.0)
    roamer = Ue5g(sim, ue.imsi, ue.k, ue.opc, gnb)
    assert sim.run_until_triggered(roamer.register(), limit=sim.now + 60.0)
    assert feg.stats["auth_requests"] == 1
    assert mno.stats["s6a_requests"] == 1
    assert agw.mme.context_for(ue.imsi).federated
    assert sim.run_until_triggered(roamer.establish_pdu_session(),
                                   limit=sim.now + 60.0)
    sim.run(until=sim.now + 2.0)
    assert mno.stats["gx_requests"] == 1
    assert agw.subscriberdb.get(ue.imsi).federated
    assert agw.admitted_downlink(ue.imsi, 100.0) == pytest.approx(25.0)


def test_home_routed_session_marked():
    sim, network, mno, feg, agw, enb, ue = build_federated(
        mode=DeploymentMode.HOME_ROUTED)
    done = ue.attach()
    outcome = sim.run_until_triggered(done, limit=60.0)
    assert outcome.success
    sim.run(until=sim.now + 2.0)
    session = agw.sessiond.session(ue.imsi)
    assert session.home_routed
    assert agw.pipelined.session(ue.imsi).egress_port == "gtpa"


def test_unknown_roamer_rejected():
    sim, network, mno, feg, agw, enb, ue = build_federated()
    stranger_imsi = make_imsi(404)
    k, opc = subscriber_keys(404)
    stranger = Ue(sim, stranger_imsi, k, opc, enb)
    done = stranger.attach()
    outcome = sim.run_until_triggered(done, limit=60.0)
    assert not outcome.success
    assert mno.stats["s6a_unknown"] == 1


def test_local_subscriber_does_not_touch_feg():
    sim, network, mno, feg, agw, enb, ue = build_federated()
    local_imsi = make_imsi(8)
    k, opc = subscriber_keys(8)
    agw.subscriberdb.upsert(SubscriberProfile(imsi=local_imsi, k=k, opc=opc))
    local_ue = Ue(sim, local_imsi, k, opc, enb)
    done = local_ue.attach()
    outcome = sim.run_until_triggered(done, limit=60.0)
    assert outcome.success
    assert feg.stats["auth_requests"] == 0


def test_feg_unreachable_rejects_roamers_only():
    sim, network, mno, feg, agw, enb, ue = build_federated()
    network.set_node_up("feg", False)
    done = ue.attach()
    outcome = sim.run_until_triggered(done, limit=120.0)
    assert not outcome.success


def test_gy_quota_through_feg():
    """Home-style online charging against the MNO's OCS via the FeG."""
    sim = Simulator()
    rng = RngRegistry(2)
    network = Network(sim, rng)
    ocs = OnlineChargingSystem(quota_bytes=1_000_000)
    mno = PartnerMnoCore(sim, network, "mno", rng=rng, ocs=ocs)
    network.connect("feg", "mno", backhaul.fiber())
    feg = FederationGateway(sim, network, "feg", "mno")
    from repro.core.policy import prepaid
    from repro.core.agw import AccessGateway
    config = AgwConfig(deployment_mode=DeploymentMode.LOCAL_BREAKOUT,
                       feg_node="feg")
    network.connect("agw-1", "feg", backhaul.fiber())
    agw = AccessGateway(sim, network, "agw-1", config=config,
                        ocs_node="feg", rng=rng)
    network.connect("enb-1", "agw-1", backhaul.lan())
    enb = Enodeb(sim, network, "enb-1", "agw-1")
    agw.start()
    enb.s1_setup()
    sim.run(until=1.0)
    imsi = make_imsi(9)
    k, opc = subscriber_keys(9)
    mno.provision(imsi, k, opc, policy=prepaid("mno-prepaid"))
    ocs.provision(imsi, balance_bytes=10_000_000)
    ue = Ue(sim, imsi, k, opc, enb)
    done = ue.attach()
    outcome = sim.run_until_triggered(done, limit=60.0)
    assert outcome.success, outcome.cause
    assert feg.stats["quota_requests"] >= 1
    assert ocs.account(imsi).reserved_bytes == 1_000_000


# -- GTP aggregator -----------------------------------------------------------------


def test_gtpa_shares_capacity():
    sim = Simulator()
    gtpa = GtpAggregator(sim, capacity_mbps=100.0)
    gtpa.offer("agw-1", "imsi-a", 80.0)
    gtpa.offer("agw-2", "imsi-b", 80.0)
    allocation = gtpa.allocate()
    assert allocation[("agw-1", "imsi-a")] == pytest.approx(50.0)
    assert allocation[("agw-2", "imsi-b")] == pytest.approx(50.0)
    assert gtpa.utilization() == 1.0


def test_gtpa_underload_admits_everything():
    sim = Simulator()
    gtpa = GtpAggregator(sim, capacity_mbps=1000.0)
    gtpa.offer("agw-1", "a", 10.0)
    assert gtpa.admitted("agw-1", "a") == pytest.approx(10.0)


def test_gtpa_forwards_to_mno_pgw():
    sim = Simulator()
    network = Network(sim)
    mno = PartnerMnoCore(sim, network, "mno")
    gtpa = GtpAggregator(sim, capacity_mbps=100.0, mno_core=mno)
    gtpa.offer("agw-1", "imsi-a", 8.0)   # 8 Mbps = 1 MB/s
    carried = gtpa.forward(duration=10.0)
    assert carried == pytest.approx(8.0)
    assert mno.pgw_usage_bytes["imsi-a"] == 10_000_000
    assert mno.pgw_total_bytes() == 10_000_000


def test_gtpa_withdraw_and_validation():
    sim = Simulator()
    gtpa = GtpAggregator(sim, capacity_mbps=100.0)
    gtpa.offer("agw-1", "a", 10.0)
    gtpa.offer("agw-1", "a", 0.0)  # zero rate withdraws the offer
    assert gtpa.admitted("agw-1", "a") == 0.0
    assert gtpa.allocate() == {}
    with pytest.raises(ValueError):
        gtpa.offer("agw-1", "a", -1.0)
    with pytest.raises(ValueError):
        GtpAggregator(sim, capacity_mbps=0)
