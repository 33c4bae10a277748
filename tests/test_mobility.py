"""Intra-AGW mobility (§3.2): handover between radios on one AGW."""

import pytest

from repro.deploy import build
from repro.lte import UeState


def attach(site, ue):
    outcome = site.run_attach(ue)
    assert outcome.success, outcome.cause
    site.sim.run(until=site.sim.now + 2.0)


def test_handover_keeps_session_and_ip():
    site = build(num_enbs=2, num_ues=1)
    ue = site.ues[0]
    attach(site, ue)
    ip_before = ue.ip_address
    session_before = site.agw.sessiond.session(ue.imsi)

    done = ue.handover_to(site.enbs[1])
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    assert ok
    site.sim.run(until=site.sim.now + 1.0)

    # The session is the SAME object: IP, counters, policy state unmoved.
    session_after = site.agw.sessiond.session(ue.imsi)
    assert session_after is session_before
    assert ue.ip_address == ip_before
    assert ue.state == UeState.REGISTERED
    # Only the RAN-side tunnel changed (TEIDs are per-eNodeB scoped).
    assert session_after.enb_node == "enb-2"
    flows = site.agw.pipelined.session(ue.imsi)
    assert flows.enb_node == "enb-2"


def test_handover_moves_radio_attachment():
    site = build(num_enbs=2, num_ues=1)
    ue = site.ues[0]
    attach(site, ue)
    ue.set_offered_rate(3.0)
    done = ue.handover_to(site.enbs[1])
    site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    assert site.enbs[0].context_for(ue.imsi) is None
    assert site.enbs[1].context_for(ue.imsi) is not None
    assert not site.enbs[0].cell.is_active(ue.imsi)
    assert site.enbs[1].cell.is_active(ue.imsi)
    # Offered traffic follows the UE to the new cell.
    assert site.enbs[1].cell.allocate() == {ue.imsi: pytest.approx(3.0)}


def test_handover_updates_directoryd():
    site = build(num_enbs=2, num_ues=1)
    ue = site.ues[0]
    attach(site, ue)
    moves_before = site.agw.directoryd.stats["moves"]
    done = ue.handover_to(site.enbs[1])
    site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    record = site.agw.directoryd.lookup(ue.imsi)
    assert record.location == "enb-2"
    assert site.agw.directoryd.stats["moves"] == moves_before + 1


def test_handover_downlink_rule_replaced_not_duplicated():
    from repro.core.agw.pipelined import TABLE_EGRESS
    site = build(num_enbs=2, num_ues=1)
    ue = site.ues[0]
    attach(site, ue)
    done = ue.handover_to(site.enbs[1])
    site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    egress = site.agw.pipelined.switch.tables[TABLE_EGRESS]
    downlink_rules = [
        rule for rule in egress.find_by_cookie(ue.imsi)
        if (rule.match.registers or {}).get("direction") == "downlink"]
    assert len(downlink_rules) == 1
    # Traffic still flows after the switch.
    assert site.agw.admitted_downlink(ue.imsi, 5.0) == pytest.approx(5.0)


def test_handover_back_and_forth():
    site = build(num_enbs=2, num_ues=1)
    ue = site.ues[0]
    attach(site, ue)
    for target in (site.enbs[1], site.enbs[0], site.enbs[1]):
        done = ue.handover_to(target)
        ok = site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
        assert ok
    assert site.agw.sessiond.session(ue.imsi).enb_node == "enb-2"


def test_handover_requires_registration():
    site = build(num_enbs=2, num_ues=1)
    ue = site.ues[0]
    done = ue.handover_to(site.enbs[1])
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 10.0)
    assert not ok


def test_handover_to_full_cell_fails_cleanly():
    from repro.lte import CellConfig
    site = build(num_enbs=2, num_ues=2,
                 cell_config=CellConfig(max_active_ues=1))
    # UE0 on enb-1, UE1 on enb-2 (round-robin assignment), both attach.
    for ue in site.ues:
        attach(site, ue)
    ue = site.ues[0]
    done = ue.handover_to(site.enbs[1])  # enb-2 is full
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    assert not ok
    # The UE stays registered on its source cell; session untouched.
    assert ue.state == UeState.REGISTERED
    assert site.enbs[0].context_for(ue.imsi) is not None
    assert site.agw.sessiond.session(ue.imsi) is not None


def test_handover_detach_after_move_cleans_target():
    site = build(num_enbs=2, num_ues=1)
    ue = site.ues[0]
    attach(site, ue)
    done = ue.handover_to(site.enbs[1])
    site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    ue.detach()
    site.sim.run(until=site.sim.now + 2.0)
    assert site.agw.sessiond.session(ue.imsi) is None
    assert site.enbs[1].context_for(ue.imsi) is None
