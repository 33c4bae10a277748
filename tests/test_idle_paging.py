"""Idle mode (ECM-IDLE) and paging through the full stack."""

import pytest

from repro.deploy import build
from repro.lte import UeState


def attached(site, index=0):
    ue = site.ues[index]
    assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    return ue


def test_go_idle_keeps_session_frees_radio():
    site = build(num_ues=1)
    ue = attached(site)
    ip = ue.ip_address
    ue.go_idle()
    site.sim.run(until=site.sim.now + 2.0)
    assert ue.state == UeState.IDLE
    assert ue.ip_address == ip                      # session anchored
    session = site.agw.sessiond.session(ue.imsi)
    assert session is not None
    assert not session.connected                    # ECM-IDLE at the AGW
    assert site.enbs[0].context_for(ue.imsi) is None  # radio released
    assert not site.enbs[0].cell.is_active(ue.imsi)   # cell slot freed


def test_idle_frees_cell_capacity_for_others():
    from repro.lte import CellConfig
    site = build(num_ues=2, cell_config=CellConfig(max_active_ues=1))
    first = attached(site, 0)
    first.go_idle()
    site.sim.run(until=site.sim.now + 1.0)
    # The freed slot admits the second UE.
    outcome = site.run_attach(site.ues[1])
    assert outcome.success


def test_service_request_returns_to_connected():
    site = build(num_ues=1)
    ue = attached(site)
    ue.go_idle()
    site.sim.run(until=site.sim.now + 2.0)
    done = ue.service_request()
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    assert ok
    site.sim.run(until=site.sim.now + 2.0)
    assert ue.state == UeState.REGISTERED
    session = site.agw.sessiond.session(ue.imsi)
    assert session.connected
    # The bearer is re-established end to end (fresh eNB tunnel).
    assert session.enb_teid is not None
    assert site.agw.admitted_downlink(ue.imsi, 5.0) == pytest.approx(5.0)


def test_paging_wakes_idle_ue():
    site = build(num_ues=1)
    ue = attached(site)
    ue.go_idle()
    site.sim.run(until=site.sim.now + 2.0)
    assert site.agw.page(ue.imsi) is True
    site.sim.run(until=site.sim.now + 10.0)
    assert ue.state == UeState.REGISTERED
    assert site.agw.sessiond.session(ue.imsi).connected
    assert site.agw.s1ap.stats.get("pages", 0) == 1


def test_page_connected_ue_is_noop_true():
    site = build(num_ues=1)
    ue = attached(site)
    assert site.agw.page(ue.imsi) is True
    assert site.agw.s1ap.stats.get("pages", 0) == 0


def test_page_unknown_ue_false():
    site = build(num_ues=1)
    assert site.agw.page("9" * 15) is False


def test_idle_then_detach_path():
    """A UE can come back from idle and cleanly detach."""
    site = build(num_ues=1)
    ue = attached(site)
    ue.go_idle()
    site.sim.run(until=site.sim.now + 2.0)
    done = ue.service_request()
    assert site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    ue.detach()
    site.sim.run(until=site.sim.now + 2.0)
    assert site.agw.sessiond.session(ue.imsi) is None


def test_usage_counters_survive_idle_cycle():
    site = build(num_ues=1)
    ue = attached(site)
    site.agw.sessiond.record_usage(ue.imsi, dl_bytes=12345, ul_bytes=0)
    ue.go_idle()
    site.sim.run(until=site.sim.now + 2.0)
    done = ue.service_request()
    assert site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    site.sim.run(until=site.sim.now + 2.0)
    assert site.agw.sessiond.session(ue.imsi).bytes_dl == 12345


def test_traffic_stops_while_idle_resumes_after():
    from repro.workloads.traffic import TrafficEngine
    site = build(num_ues=1)
    ue = attached(site)
    ue.set_offered_rate(5.0)
    engine = TrafficEngine(site.sim, site.agw, site.enbs)
    engine.start()
    site.sim.run(until=site.sim.now + 5.0)
    assert engine.last_achieved_mbps == pytest.approx(5.0, rel=0.05)
    ue.go_idle()
    site.sim.run(until=site.sim.now + 5.0)
    assert engine.last_achieved_mbps == 0.0      # no radio while idle
    done = ue.service_request()
    assert site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    site.sim.run(until=site.sim.now + 5.0)
    assert engine.last_achieved_mbps == pytest.approx(5.0, rel=0.05)
