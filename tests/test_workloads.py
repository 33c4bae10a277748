"""Workload generators: attach storms, traffic engine, IoT, diurnal trace."""

import pytest

from repro.deploy import build
from repro.lte import CellConfig, nas
from repro.workloads.attach_storm import AttachStorm
from repro.workloads.diurnal import (
    DiurnalConfig,
    diurnal_factor,
    generate_trace,
    summarize,
)
from repro.workloads.iot import IotWorkload
from repro.workloads.traffic import TrafficEngine


def test_attach_storm_all_succeed_at_low_rate():
    site = build(num_ues=5)
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=1.0)
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=120.0)
    assert storm.overall_csr() == 1.0
    assert storm.success_count() == 5
    assert len(storm.records) == 5


def test_attach_storm_csr_bins():
    site = build(num_ues=6)
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=2.0)
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=120.0)
    bins = storm.csr_bins(width=5.0)
    assert bins
    assert all(0.0 <= csr <= 1.0 for _t, csr in bins)
    assert storm.median_csr() == 1.0


def test_attach_storm_degrades_under_overload(monkeypatch):
    """Offering attaches much faster than the AGW's CPU can serve them
    must produce failures (the Fig. 6 mechanism)."""
    monkeypatch.setattr(nas, "T3410_ATTACH", 10.0)
    site = build(num_ues=60, num_enbs=2)
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=12.0)
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=600.0)
    # Bare-metal profile: ~4 attach/s capacity; 12/s offered must fail some.
    assert storm.overall_csr() < 0.9


def test_attach_storm_validation():
    site = build(num_ues=1)
    with pytest.raises(ValueError):
        AttachStorm(site.sim, site.ues, rate_per_sec=0)


def test_traffic_engine_delivers_offered_load():
    site = build(num_ues=4)
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=2.0,
                        offered_mbps_after_attach=1.5)
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=120.0)
    engine = TrafficEngine(site.sim, site.agw, site.enbs,
                           monitor=site.monitor)
    engine.start()
    site.sim.run(until=site.sim.now + 20.0)
    assert engine.last_achieved_mbps == pytest.approx(6.0, rel=0.05)
    # Usage was accounted into sessions.
    session = site.agw.sessiond.session(site.imsis[0])
    assert session.bytes_dl > 1_000_000


def test_traffic_engine_respects_policy_rate():
    from repro.core.policy import rate_limited
    site = build(num_ues=2,
                 policy=rate_limited("slow", 0.5))
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=2.0,
                        offered_mbps_after_attach=10.0)
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=120.0)
    engine = TrafficEngine(site.sim, site.agw, site.enbs)
    engine.start()
    site.sim.run(until=site.sim.now + 10.0)
    assert engine.last_achieved_mbps == pytest.approx(1.0, rel=0.05)


def test_traffic_engine_limited_by_radio_capacity():
    site = build(num_ues=4, cell_config=CellConfig(capacity_mbps=10.0))
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=2.0,
                        offered_mbps_after_attach=20.0)
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=120.0)
    engine = TrafficEngine(site.sim, site.agw, site.enbs)
    engine.start()
    site.sim.run(until=site.sim.now + 10.0)
    assert engine.last_achieved_mbps == pytest.approx(10.0, rel=0.05)


def test_iot_workload_cycles():
    site = build(num_ues=5)
    iot = IotWorkload(site.sim, site.ues, report_interval=20.0,
                      sessiond=site.agw.sessiond, rng=site.rng)
    iot.start()
    site.sim.run(until=100.0)
    iot.stop()
    assert iot.stats.attaches >= 10   # multiple cycles per device
    assert iot.success_rate() > 0.9
    assert iot.stats.bytes_sent > 0


def test_iot_validation():
    site = build(num_ues=1)
    with pytest.raises(ValueError):
        IotWorkload(site.sim, site.ues, report_interval=0)


# -- diurnal trace ----------------------------------------------------------------


def test_diurnal_factor_peaks_at_peak_hour():
    peak = diurnal_factor(20, peak_hour=20, trough_fraction=0.1)
    trough = diurnal_factor(8, peak_hour=20, trough_fraction=0.1)
    assert peak == pytest.approx(1.0)
    assert trough < 0.3


def test_diurnal_trace_shape():
    config = DiurnalConfig(days=14)
    trace = generate_trace(config, seed=1)
    assert len(trace) == 14 * 24
    stats = summarize(trace)
    # Clear diurnal swing.
    assert stats["peak_to_trough_ratio"] > 3.0
    # Evening peak, pre-dawn trough.
    assert 17 <= stats["peak_hour_of_day"] <= 23
    assert 2 <= stats["trough_hour_of_day"] <= 10


def test_diurnal_trace_deterministic():
    t1 = generate_trace(DiurnalConfig(days=3), seed=7)
    t2 = generate_trace(DiurnalConfig(days=3), seed=7)
    assert [s.active_subscribers for s in t1] == \
           [s.active_subscribers for s in t2]
    t3 = generate_trace(DiurnalConfig(days=3), seed=8)
    assert [s.active_subscribers for s in t1] != \
           [s.active_subscribers for s in t3]


def test_diurnal_weekend_uplift():
    config = DiurnalConfig(days=14, noise_sigma=0.01)
    trace = generate_trace(config, seed=1)
    weekday = [s.active_subscribers for s in trace if s.day % 7 < 5]
    weekend = [s.active_subscribers for s in trace if s.day % 7 >= 5]
    assert sum(weekend) / len(weekend) > sum(weekday) / len(weekday)


def test_diurnal_growth():
    config = DiurnalConfig(days=56, noise_sigma=0.01, weekend_uplift=1.0)
    trace = generate_trace(config, seed=1)
    first_week = [s.active_subscribers for s in trace[:7 * 24]]
    last_week = [s.active_subscribers for s in trace[-7 * 24:]]
    assert sum(last_week) > sum(first_week) * 1.05


def test_diurnal_validation():
    with pytest.raises(ValueError):
        DiurnalConfig(trough_fraction=0.0)
    with pytest.raises(ValueError):
        summarize([])


def test_iot_idle_mode_uses_service_requests():
    site = build(num_ues=4)
    from repro.workloads.iot import IotWorkload
    iot = IotWorkload(site.sim, site.ues, report_interval=15.0,
                      sessiond=site.agw.sessiond, rng=site.rng,
                      mode=IotWorkload.MODE_IDLE)
    iot.start()
    site.sim.run(until=120.0)
    iot.stop()
    assert iot.success_rate() > 0.9
    # Only the first cycle per device is a full attach; the rest are
    # service requests - far cheaper on the control plane.
    assert site.agw.mme.stats["attach_requests"] == 4
    assert iot.stats.attaches > 8
    # Sessions persisted across idle cycles (usage accumulated).
    for ue in site.ues:
        session = site.agw.sessiond.session(ue.imsi)
        assert session is not None
        assert session.bytes_ul >= 2_000


def test_iot_mode_validation():
    site = build(num_ues=1)
    from repro.workloads.iot import IotWorkload
    with pytest.raises(ValueError):
        IotWorkload(site.sim, site.ues, mode="teleport")
