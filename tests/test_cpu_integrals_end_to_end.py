"""Readers of the CPU model's integrals, end to end.

The model samples nothing (DESIGN.md §6.10); each consumer takes a
difference of an integral over its own window.  Two of them matter to an
operator: the ``cpu_util`` an AGW ships at check-in (metricsd, then the
health engine's headroom subscore) and the share of offered traffic the
``TrafficEngine`` says was forwarded under control-plane contention.
"""

from dataclasses import replace

import pytest

from repro.core.agw import AgwConfig, BARE_METAL, virtual_profile
from repro.deploy import build
from repro.lte import CellConfig
from repro.obs.health import CPU_UTIL_CEILING
from repro.workloads.traffic import TrafficEngine

GATEWAY = {"gateway_id": "agw-1"}


def test_checkin_reports_time_weighted_cpu_util_to_health():
    """A steady 25% forwarding load with a burst of three attaches inside
    one check-in interval: that interval - and only that one - reports the
    mean of both, and the health engine scores headroom from it."""
    d = build(num_ues=3, backhaul="fiber",
              config=AgwConfig(hardware=BARE_METAL, checkin_interval=5.0))
    sim, orc, agw, ues = d.sim, d.orc, d.agw, d.ues
    sim.run(until=8.0)
    cpu = agw.context.cpu
    agw.set_user_plane_load(250.0)      # 1.0 of the 4 cores from here on
    offered = cpu.fluid_work("up")[0]
    sim.run(until=21.0)
    assert cpu.fluid_work("up")[0] - offered == pytest.approx(13.0)
    reported = orc.metricsd.query("cpu_util", GATEWAY)
    assert [s.value for s in reported[-2:]] == [0.25, 0.25]
    # The partly loaded interval [~5, ~10] saw the load from t=8 only.
    first_loaded = reported[-3]
    assert first_loaded.value == pytest.approx(
        (first_loaded.time - 8.0) / (4 * (first_loaded.time - 5.0)))

    # Three attaches, started and finished between two check-ins.
    burst_at = reported[-1].time + 1.5
    sim.schedule_at(burst_at, lambda: [ue.attach() for ue in ues])
    sim.run(until=reported[-1].time + 16.0)
    assert [ue.state for ue in ues] == ["registered"] * 3
    attach_work = cpu.busy_core_seconds("cp")
    assert attach_work == pytest.approx(3 * BARE_METAL.attach_cpu_cost)
    after = orc.metricsd.query("cpu_util", GATEWAY)[len(reported) - 1:]
    before_burst, with_burst, quiet = after[:3]
    assert before_burst.time < burst_at < with_burst.time
    window = with_burst.time - before_burst.time
    assert with_burst.value == pytest.approx(
        (1.0 * window + attach_work) / (4 * window))
    assert with_burst.value > 0.39
    assert quiet.value == pytest.approx(0.25)

    # metricsd -> health: headroom is scored from the freshest interval.
    latest = orc.metricsd.latest("cpu_util", GATEWAY)
    health = orc.health.agw_health("agw-1")
    assert health["detail"]["cpu_util"] == latest.value == pytest.approx(0.25)
    assert health["subscores"]["cpu"] == pytest.approx(
        1.0 - 0.25 / CPU_UTIL_CEILING)


def test_traffic_engine_achieves_the_tick_window_fraction():
    """One core, a user plane asking for two: alone it is served at 0.5;
    while a control-plane task runs, max-min halves that again.  What the
    engine forwards in a tick is the mean over the tick, whatever the
    service rate happens to be at the instant it looks."""
    costly = replace(virtual_profile(1), up_cost_per_mbps=0.05)
    site = build(num_ues=1, config=AgwConfig(hardware=costly),
                 cell_config=CellConfig(capacity_mbps=1000.0))
    assert site.run_attach(site.ues[0]).success
    for ue in site.ues:
        ue.set_offered_rate(1000.0)
    site.sim.run(until=10.0)
    engine = TrafficEngine(site.sim, site.agw, site.enbs)
    engine.start()
    cpu = site.agw.context.cpu
    site.sim.run(until=13.0)
    admitted = engine.last_admitted_mbps
    offered, served = cpu.fluid_work("up")
    assert engine.last_achieved_mbps == pytest.approx(0.5 * admitted)

    # A 0.2 core-s task at 13.3 runs at half a core until 13.7: the tick
    # [13, 14] is served 0.25 for 0.4 s and 0.5 for 0.6 s, 0.8 of the 2.0
    # core-s offered.
    site.sim.schedule_at(13.3, cpu.submit, "cp", 0.2)
    site.sim.run(until=14.0)
    offered_after, served_after = cpu.fluid_work("up")
    assert offered_after - offered == pytest.approx(2.0)
    assert served_after - served == pytest.approx(0.8)
    assert engine.last_achieved_mbps == pytest.approx(0.40 * admitted)

    # The same task straddling a tick boundary (14.8 - 15.2): each tick gets
    # its own share of it.
    site.sim.schedule_at(14.8, cpu.submit, "cp", 0.2)
    site.sim.run(until=15.0)
    assert engine.last_achieved_mbps == pytest.approx(0.45 * admitted)
    site.sim.run(until=16.0)
    assert engine.last_achieved_mbps == pytest.approx(0.45 * admitted)
    site.sim.run(until=17.0)
    assert engine.last_achieved_mbps == pytest.approx(0.5 * admitted)
