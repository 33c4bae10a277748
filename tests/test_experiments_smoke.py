"""Smoke tests for the experiment harness (small configs, shape checks).

The full-scale runs live in benchmarks/; these keep the harness code under
unit-test coverage and catch regressions fast.
"""

import pytest

from repro.experiments.ablation_double_spend import run_double_spend
from repro.experiments.ablation_fault_domains import run_fault_domain_ablation
from repro.experiments.ablation_gtp import run_gtp_ablation
from repro.experiments.ablation_headless import run_headless_ablation
from repro.experiments.ablation_state_sync import (
    run_state_sync,
    run_state_sync_point,
)
from repro.experiments.cups import CupsConfig, run_cups_point
from repro.experiments.fig5_cpu_util import Fig5Config, run_fig5
from repro.experiments.fig6_attach_rate import Fig6Config, run_fig6_point
from repro.experiments.fig9_accessparks import run_fig9
from repro.experiments.scaling import run_scaling_point
from repro.experiments.tables import run_table2, run_table3
from repro.workloads.diurnal import DiurnalConfig


def test_fig5_small():
    config = Fig5Config(num_ues=30, num_enbs=1, attach_rate=3.0,
                        steady_duration=20.0)
    result = run_fig5(config)
    assert result.ue_success_fraction == 1.0
    assert result.steady_state_mbps == pytest.approx(45.0, rel=0.05)
    assert result.render()  # renders without error
    assert len(result.cpu_series) == len(result.throughput_series)


def test_fig6_single_points():
    config = Fig6Config(num_enbs=2, background_ues_per_enb=4,
                        storm_duration=15.0, min_storm_ues=10)
    low = run_fig6_point(1.0, config)
    assert low.csr >= 0.99
    high = run_fig6_point(6.0, config)
    assert high.csr < low.csr


def test_cups_flexible_vs_starved():
    config = CupsConfig(attach_rate=10.0, num_traffic_ues=10,
                        traffic_per_ue_mbps=100.0, measure_duration=15.0)
    starved = run_cups_point(6, config)
    flexible = run_cups_point(None, config)
    assert flexible.median_csr >= starved.median_csr
    assert starved.throughput_mbps >= flexible.throughput_mbps * 0.8


def test_cups_rejects_all_cores_to_up():
    with pytest.raises(ValueError):
        run_cups_point(8, CupsConfig())


def test_fig9_small():
    result = run_fig9(DiurnalConfig(days=7), seed=3)
    assert result.stats["hours"] == 7 * 24
    assert result.stats["peak_to_trough_ratio"] > 2.0
    assert len(result.daily_rows()) == 7
    assert result.render()


def test_tables_render():
    t2 = run_table2()
    t3 = run_table3()
    assert "AGW" in t2.render()
    assert "-43%" in t3.render()


def test_scaling_point_small():
    point = run_scaling_point(20, checkin_interval=10.0, duration=40.0)
    assert point.checkin_success_fraction == 1.0
    assert point.convergence_fraction == 1.0
    assert point.orchestrator_cpu_util < 0.5
    # Busy core-seconds of the main node and every shard over the whole
    # cluster's cores: the figure a single-CPU orchestrator measured.
    assert point.orchestrator_cpu_util == pytest.approx(
        0.0012922222222222649, rel=1e-12)


def test_scaling_stub_metrics_use_the_backfill_path():
    """A stub ships each interval's four metrics as a one-entry
    ``metrics_backlog``: they land in metricsd at the stub's send time,
    the reply acks the entry's seq, and the check-in is charged for four
    samples."""
    from repro.core.orchestrator import Orchestrator
    from repro.core.orchestrator.orchestrator import (
        CHECKIN_CPU_COST,
        METRICS_CPU_COST_PER_SAMPLE,
    )
    from repro.experiments.scaling import AgwStub
    from repro.net.simnet import Link, Network
    from repro.sim import RngRegistry, Simulator

    sim = Simulator()
    network = Network(sim, RngRegistry(0))
    orc = Orchestrator(sim, network, "orc")
    network.connect("agw-0", "orc", Link(latency=0.02))
    stub = AgwStub(sim, network, "agw-0", "orc", interval=10.0, offset=1.0)
    exchanges, charges = [], []
    shard = orc.shards[0]
    handle_checkin, submit = shard.statesync.handle_checkin, shard.cpu.submit

    def spy_checkin(request):
        response = handle_checkin(request)
        exchanges.append((request, response))
        return response

    def spy_submit(cls, demand):
        charges.append((cls, demand))
        return submit(cls, demand)

    shard.statesync.handle_checkin = spy_checkin
    shard.cpu.submit = spy_submit
    sim.run(until=35.0)

    assert stub.checkins_ok == len(exchanges) == 4
    sent = []
    for seq, (request, response) in enumerate(exchanges, start=1):
        assert "metrics" not in request
        [entry] = request["metrics_backlog"]
        assert entry["seq"] == seq
        assert len(entry["metrics"]) == 4
        assert response["metrics_ack"] == seq
        sent.append(entry["time"])
    samples = orc.metricsd.query("sessions_active", {"gateway_id": "agw-0"})
    assert [s.time for s in samples] == sent
    assert [s.time for s in orc.metricsd.query(
        "cpu_util", {"gateway_id": "agw-0"})] == sent
    assert charges == [("checkin", CHECKIN_CPU_COST
                        + 4 * METRICS_CPU_COST_PER_SAMPLE)] * 4


def test_state_sync_point_lossless():
    point = run_state_sync_point(0.0, num_operations=30)
    assert point.crud_divergence == 0
    assert point.desired_divergence == 0
    assert point.crud_divergence_after_restart > 0
    assert point.desired_divergence_after_restart == 0


def test_state_sync_sweep_renders():
    result = run_state_sync(losses=(0.0, 0.3), num_operations=30)
    assert "crud" in result.render()


def test_gtp_ablation_small():
    result = run_gtp_ablation(num_ues=4, fragile_fraction=0.5,
                              outage_seconds=45.0)
    assert result.baseline_sessions_lost == 4
    assert result.baseline_stuck_ues == 2
    assert result.magma_sessions_lost == 0
    assert result.magma_stuck_ues == 0


def test_fault_domain_small():
    result = run_fault_domain_ablation(num_sites=2, ues_per_site=2)
    assert result.magma_affected_fraction == pytest.approx(0.5)
    assert result.baseline_affected_fraction == 1.0
    assert result.magma_sessions_restored == 2


def test_headless_small():
    result = run_headless_ablation(partition_seconds=40.0,
                                   num_cached_ues=2,
                                   checkin_interval=5.0)
    assert result.attach_successes_during_partition == 2
    assert result.new_subscriber_rejected_during_partition
    assert result.provisioning_latency_after_heal <= 10.0


def test_double_spend_bound():
    result = run_double_spend(quota_sizes=(500_000,), agw_hops=3)
    point = result.points[0]
    assert point.bound_holds
    assert point.unbilled_bytes == 3 * 500_000
