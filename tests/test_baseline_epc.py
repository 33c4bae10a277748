"""Baseline monolithic EPC: attach over backhaul, GTP fragility, fault domain."""

from repro.baseline.epc import MonolithicEpc
from repro.core.agw import SubscriberProfile
from repro.deploy import build, subscriber_keys
from repro.lte import Enodeb, Ue, UeConfig, UeState, make_imsi, nas
from repro.lte.gtp import GtpcEndpoint
from repro.net import Link, Network, backhaul
from repro.sim import RngRegistry, Simulator


def build_baseline(backhaul_link=None, num_ues=1, fragile=False, seed=1,
                   echo_interval=5.0):
    """One central EPC, one remote cell site across the backhaul."""
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    epc = MonolithicEpc(sim, network, "epc", rng=rng,
                        gtp_echo_interval=echo_interval)
    link = backhaul_link or backhaul.fiber()
    network.connect("enb-1", "epc", link)
    enb = Enodeb(sim, network, "enb-1", "epc")
    # The eNodeB side GTP endpoint answers the SGW's echo requests and
    # monitors the path toward the core from its own side.
    enb_gtp = GtpcEndpoint(sim, network, "enb-1")
    enb_gtp.set_path_failure_callback(
        lambda peer: enb.s1_path_failure("gtp path failure"))
    enb_gtp.start_path_monitor("epc", interval=echo_interval)
    ues = []
    for i in range(num_ues):
        imsi = make_imsi(i + 1)
        k, opc = subscriber_keys(i + 1)
        epc.provision(SubscriberProfile(imsi=imsi, k=k, opc=opc))
        ues.append(Ue(sim, imsi, k, opc, enb,
                      config=UeConfig(fragile_baseband=fragile)))
    enb.s1_setup()
    sim.run(until=1.0)
    assert enb.s1_ready
    return sim, network, epc, enb, enb_gtp, ues


def test_baseline_attach_over_fiber():
    sim, network, epc, enb, enb_gtp, ues = build_baseline()
    done = ues[0].attach()
    outcome = sim.run_until_triggered(done, limit=60.0)
    assert outcome.success
    assert ues[0].ip_address.startswith("10.200.")
    sim.run(until=sim.now + 2.0)  # let AttachComplete reach the EPC
    assert epc.session_count() == 1


def test_baseline_attach_over_satellite_works_but_slowly():
    sim, network, epc, enb, enb_gtp, ues = build_baseline(
        backhaul_link=Link(latency=0.3, loss=0.0))
    done = ues[0].attach()
    outcome = sim.run_until_triggered(done, limit=120.0)
    assert outcome.success
    # Every NAS round trip crosses the satellite: multi-second attach.
    assert outcome.latency > 2.0


def test_baseline_unknown_subscriber_rejected():
    sim, network, epc, enb, enb_gtp, ues = build_baseline()
    imsi = make_imsi(404)
    k, opc = subscriber_keys(404)
    stranger = Ue(sim, imsi, k, opc, enb)
    done = stranger.attach()
    outcome = sim.run_until_triggered(done, limit=60.0)
    assert not outcome.success


def test_baseline_detach():
    sim, network, epc, enb, enb_gtp, ues = build_baseline()
    done = ues[0].attach()
    sim.run_until_triggered(done, limit=60.0)
    ues[0].detach()
    sim.run(until=sim.now + 3.0)
    assert epc.session_count() == 0


def test_gtp_path_failure_tears_down_sessions():
    """Backhaul outage => lost echoes => path failure => sessions gone."""
    sim, network, epc, enb, enb_gtp, ues = build_baseline()
    done = ues[0].attach()
    outcome = sim.run_until_triggered(done, limit=60.0)
    assert outcome.success
    sim.run(until=sim.now + 2.0)  # let AttachComplete reach the EPC
    # Backhaul outage long enough to kill the echo exchange.
    network.set_node_up("enb-1", False)
    sim.run(until=sim.now + 60.0)
    network.set_node_up("enb-1", True)
    sim.run(until=sim.now + 30.0)
    assert epc.stats["gtp_path_failures"] == 1
    assert epc.stats["sessions_torn_down"] == 1
    assert epc.session_count() == 0


def test_fragile_ue_wedges_on_gtp_failure_normal_ue_recovers():
    """The §3.1 baseband story, reproduced end to end in the baseline."""
    sim, network, epc, enb, enb_gtp, ues = build_baseline(num_ues=2)
    fragile_imsi = make_imsi(10)
    k, opc = subscriber_keys(10)
    epc.provision(SubscriberProfile(imsi=fragile_imsi, k=k, opc=opc))
    fragile = Ue(sim, fragile_imsi, k, opc, enb,
                 config=UeConfig(fragile_baseband=True))
    for ue in (ues[0], fragile):
        done = ue.attach()
        outcome = sim.run_until_triggered(done, limit=sim.now + 60.0)
        assert outcome.success
    sim.run(until=sim.now + 2.0)  # let AttachCompletes reach the EPC
    # Outage kills the GTP path; the EPC releases both UE contexts.
    network.set_node_up("enb-1", False)
    sim.run(until=sim.now + 60.0)
    network.set_node_up("enb-1", True)
    sim.run(until=sim.now + 30.0)
    assert fragile.state == UeState.STUCK
    assert ues[0].state == UeState.DEREGISTERED
    # The healthy UE reconnects; the fragile one cannot until power-cycled.
    epc.restart_path_monitor("enb-1")
    done = ues[0].attach()
    outcome = sim.run_until_triggered(done, limit=sim.now + 60.0)
    assert outcome.success
    done = fragile.attach()
    outcome = sim.run_until_triggered(done, limit=sim.now + 60.0)
    assert not outcome.success
    assert "stuck" in outcome.cause
    fragile.power_cycle()
    done = fragile.attach()
    outcome = sim.run_until_triggered(done, limit=sim.now + 60.0)
    assert outcome.success


def test_epc_crash_is_a_large_fault_domain(monkeypatch):
    """One EPC, two sites: the crash takes down both (§3.3 contrast)."""
    sim, network, epc, enb, enb_gtp, ues = build_baseline()
    network.connect("enb-2", "epc", backhaul.fiber())
    enb2 = Enodeb(sim, network, "enb-2", "epc")
    enb2.s1_setup()
    sim.run(until=sim.now + 1.0)
    imsi2 = make_imsi(20)
    k, opc = subscriber_keys(20)
    epc.provision(SubscriberProfile(imsi=imsi2, k=k, opc=opc))
    ue2 = Ue(sim, imsi2, k, opc, enb2)
    done = ues[0].attach()
    assert sim.run_until_triggered(done, limit=sim.now + 60.0).success
    epc.crash()
    # Neither site can attach a new UE.
    ues[0].state = UeState.DEREGISTERED
    enb.rrc_release(ues[0])
    monkeypatch.setattr(nas, "T3410_ATTACH", 5.0)
    for ue in (ues[0], ue2):
        done = ue.attach()
        outcome = sim.run_until_triggered(done, limit=sim.now + 60.0)
        assert not outcome.success
    epc.recover()
    done = ue2.attach()
    assert sim.run_until_triggered(done, limit=sim.now + 60.0).success


def test_gtp_path_failure_mid_attach_leaves_nothing_behind():
    """A UE whose AttachComplete is lost with the path goes too: no
    session, no IP and no context survives for any UE at that eNodeB."""
    sim, network, epc, enb, enb_gtp, ues = build_baseline(
        backhaul_link=backhaul.satellite(), num_ues=6, seed=3)
    for ue in ues:
        outcome = sim.run_until_triggered(ue.attach(), limit=sim.now + 120.0)
        assert outcome.success
    # The site drops off the instant the last attach returns, so that
    # UE's AttachComplete is still crossing the satellite.
    network.set_node_up("enb-1", False)
    sim.run(until=sim.now + 60.0)
    network.set_node_up("enb-1", True)
    sim.run(until=sim.now + 30.0)
    assert epc.stats["gtp_path_failures"] == 1
    assert epc.session_count() == 0
    assert epc.agw.mobilityd.assigned_count == 0
    assert [epc.context_for(ue.imsi) for ue in ues] == [None] * len(ues)


def test_baseline_resynchronises_a_usim_ahead_of_the_hss():
    """SQN resynchronisation belongs to the one access core, so a UE
    whose USIM is ahead of the HSS attaches through the EPC as well."""
    sim, network, epc, enb, enb_gtp, ues = build_baseline()
    ues[0].usim_sqn = 25
    outcome = sim.run_until_triggered(ues[0].attach(), limit=60.0)
    assert outcome.success, outcome.cause
    assert outcome.latency < 1.0


def _attach_downlinks(sim, ue):
    """The NAS message types ``ue`` receives during one attach."""
    received = []
    deliver = ue.deliver_nas

    def record(message):
        received.append(type(message).__name__)
        return deliver(message)

    ue.deliver_nas = record
    outcome = sim.run_until_triggered(ue.attach(), limit=sim.now + 60.0)
    assert outcome.success
    return received


def test_epc_and_agw_send_the_same_attach_downlinks():
    """Only placement differs: one LTE attach through the EPC and through
    a cell-site AGW sends the UE the same NAS downlinks."""
    sim, network, epc, enb, enb_gtp, ues = build_baseline()
    site = build()
    through_epc = _attach_downlinks(sim, ues[0])
    assert through_epc == _attach_downlinks(site.sim, site.ues[0])
    assert through_epc == ["AuthenticationRequest", "SecurityModeCommand",
                           "AttachAccept"]
