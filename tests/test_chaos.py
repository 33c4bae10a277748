"""Failure injection: random crashes/outages under load.

Not a paper figure - a robustness net: whatever sequence of AGW crashes,
recoveries, and orchestrator partitions occurs mid-storm, the system must
end consistent (no duplicate IPs, session table matches data plane, UEs
can eventually attach) and the simulation itself must never wedge.
"""

from repro.core.agw import AgwConfig
from repro.deploy import build
from repro.lte import UeState, nas
from repro.workloads.attach_storm import AttachStorm


def consistent(site):
    """Cross-service invariants that must hold at any quiescent point."""
    agw = site.agw
    sessions = agw.sessiond.active_sessions()
    ips = [s.ue_ip for s in sessions]
    assert len(ips) == len(set(ips)), "duplicate UE IPs"
    for session in sessions:
        assert agw.pipelined.has_session(session.imsi)
        assert agw.mobilityd.lookup_ip(session.imsi) == session.ue_ip
    assert agw.pipelined.session_count() == len(sessions)


def test_crash_mid_storm_then_recover(monkeypatch):
    monkeypatch.setattr(nas, "T3410_ATTACH", 8.0)
    site = build(num_ues=20, num_enbs=2)
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=2.0)
    storm.start()
    site.sim.run(until=4.0)      # a few UEs in, several mid-procedure
    site.agw.crash()
    site.sim.run(until=10.0)
    site.agw.recover()
    site.sim.run_until_triggered(storm.done, limit=600.0)
    consistent(site)
    # UEs that failed during the outage can attach afterwards.
    failed = [ue for ue in site.ues if ue.state == UeState.DEREGISTERED]
    if failed:
        outcome = site.run_attach(failed[0])
        assert outcome.success
        consistent(site)


def test_repeated_crash_recover_cycles():
    site = build(num_ues=6)
    rng = site.rng.stream("chaos")
    for cycle in range(5):
        for ue in site.ues:
            if ue.state == UeState.DEREGISTERED:
                site.run_attach(ue)
        site.sim.run(until=site.sim.now + 12.0)  # checkpoint happens
        site.agw.crash()
        site.sim.run(until=site.sim.now + rng.uniform(1.0, 10.0))
        restored = site.agw.recover()
        assert restored >= 0
        consistent(site)
        # UEs whose sessions vanished re-attach next cycle.
        for ue in site.ues:
            session = site.agw.sessiond.session(ue.imsi)
            if session is None:
                ue.state = UeState.DEREGISTERED
                ue.enb.rrc_release(ue)
    consistent(site)


def test_flapping_backhaul_during_operation():
    d = build(num_ues=4, backhaul="satellite", seed=99,
              config=AgwConfig(checkin_interval=5.0))
    sim, network, rng, agw, ues = d.sim, d.network, d.rng, d.agw, d.ues
    sim.run(until=20.0)
    # Flap the orchestrator link while UEs churn.
    flap = rng.stream("flap")
    for _round in range(6):
        network.set_node_up("orc", False)
        for ue in ues:
            if ue.state == UeState.DEREGISTERED:
                done = ue.attach()
                sim.run_until_triggered(done, limit=sim.now + 60.0)
        sim.run(until=sim.now + flap.uniform(2.0, 8.0))
        network.set_node_up("orc", True)
        sim.run(until=sim.now + flap.uniform(2.0, 8.0))
        if ues[0].state == UeState.REGISTERED and _round % 2 == 0:
            ues[0].detach()
    sim.run(until=sim.now + 30.0)
    # Everyone who wants service can get it once things settle.
    for ue in ues:
        if ue.state == UeState.DEREGISTERED:
            done = ue.attach()
            outcome = sim.run_until_triggered(done, limit=sim.now + 60.0)
            assert outcome.success
    assert agw.magmad.stats["checkins_ok"] >= 1
    assert agw.magmad.stats["checkins_failed"] >= 1


def test_enb_failure_only_affects_its_ues():
    site = build(num_enbs=2, num_ues=4)
    for ue in site.ues:
        assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    # eNB 1 dies (power cut at the tower).
    site.network.set_node_up("enb-1", False)
    site.enbs[0].s1_path_failure("power loss")
    site.sim.run(until=site.sim.now + 5.0)
    # UEs on enb-2 (odd indices) still fine; enb-1's UEs dropped.
    assert site.ues[1].state == UeState.REGISTERED
    assert site.ues[3].state == UeState.REGISTERED
    assert site.ues[0].state == UeState.DEREGISTERED
    # A dropped UE roams to the surviving eNB and re-attaches.
    site.ues[0].enb = site.enbs[1]
    outcome = site.run_attach(site.ues[0])
    assert outcome.success
