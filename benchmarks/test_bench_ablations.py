"""Ablation benches: the design choices DESIGN.md calls out (paper §3).

- desired-state vs CRUD synchronization (§3.4)
- local GTP termination vs GTP over the backhaul (§3.1)
- small per-AGW fault domains vs a monolithic core (§3.3)
- headless operation during orchestrator partitions (§3.2)
- the OCS quota double-spend bound (§3.4)
"""

import pytest

from repro.experiments.ablation_double_spend import run_double_spend
from repro.experiments.ablation_fault_domains import run_fault_domain_ablation
from repro.experiments.ablation_gtp import run_gtp_ablation
from repro.experiments.ablation_headless import run_headless_ablation
from repro.experiments.ablation_state_sync import run_state_sync

from conftest import run_once


@pytest.mark.benchmark(group="ablation-sync")
def test_ablation_state_sync(benchmark):
    result = run_once(benchmark, run_state_sync, (0.0, 0.01, 0.05, 0.20))
    print()
    print(result.render())
    for point in result.points:
        # Desired-state always converges, even after a replica restart.
        assert point.desired_divergence == 0
        assert point.desired_divergence_after_restart == 0
        # CRUD never recovers from a restart.
        assert point.crud_divergence_after_restart > 10
    # CRUD divergence grows with loss.
    crud = [p.crud_divergence for p in result.points]
    assert crud[0] == 0 and crud[-1] > crud[1]


@pytest.mark.benchmark(group="ablation-gtp")
def test_ablation_gtp_termination(benchmark):
    result = run_once(benchmark, run_gtp_ablation, 12, 0.5, 60.0)
    print()
    print(result.render())
    # Baseline: the outage kills every session and wedges fragile UEs.
    assert result.baseline_sessions_lost == result.num_ues
    assert result.baseline_stuck_ues == int(result.num_ues *
                                            result.fragile_fraction)
    # Magma: local GTP termination shields sessions and UEs entirely.
    assert result.magma_sessions_lost == 0
    assert result.magma_stuck_ues == 0


@pytest.mark.benchmark(group="ablation-faults")
def test_ablation_fault_domains(benchmark):
    result = run_once(benchmark, run_fault_domain_ablation, 4, 5)
    print()
    print(result.render())
    # Magma: one failed AGW affects exactly its own site (1/4 of users).
    assert result.magma_affected_fraction == pytest.approx(0.25)
    # Baseline: the EPC failure affects everyone.
    assert result.baseline_affected_fraction == 1.0
    # Checkpoint restore brings the victim site's sessions back.
    assert result.magma_sessions_restored == 5


@pytest.mark.benchmark(group="ablation-headless")
def test_ablation_headless_operation(benchmark):
    result = run_once(benchmark, run_headless_ablation, 120.0)
    print()
    print(result.render())
    # Cached subscribers attach fine during the partition.
    assert result.attach_successes_during_partition == \
        result.attaches_during_partition
    # Network-wide changes wait for the partition to heal...
    assert result.new_subscriber_rejected_during_partition
    # ...and then converge within about one check-in interval.
    assert result.provisioning_latency_after_heal <= \
        2 * result.checkin_interval


@pytest.mark.benchmark(group="ablation-quota")
def test_ablation_double_spend_bound(benchmark):
    result = run_once(benchmark, run_double_spend)
    print()
    print(result.render())
    for point in result.points:
        # The unbilled exposure never exceeds quota_size x hops...
        assert point.bound_holds
        # ...and shrinks proportionally with the quota size.
    unbilled = [p.unbilled_bytes for p in result.points]
    quotas = [p.quota_bytes for p in result.points]
    assert unbilled[0] / quotas[0] == unbilled[-1] / quotas[-1]


@pytest.mark.benchmark(group="ablation-overload")
def test_ablation_overload_protection(benchmark):
    from repro.experiments.ablation_overload import run_overload_ablation
    result = run_once(benchmark, run_overload_ablation)
    print()
    print(result.render())
    for point in result.points:
        # Shedding always delivers more completed attaches than collapse.
        assert point.csr_with_protection > point.csr_without_protection
        # With shedding, goodput tracks capacity/rate (linear fall)...
        expected = result.capacity_per_sec / point.rate
        assert point.csr_with_protection >= 0.7 * expected
    # ...without it, heavy overload collapses far below capacity.
    worst = result.points[-1]
    assert worst.csr_without_protection < \
        0.5 * result.capacity_per_sec / worst.rate


@pytest.mark.benchmark(group="ablation-backhaul")
def test_ablation_backhaul_sensitivity(benchmark):
    from repro.experiments.ablation_backhaul import run_backhaul_ablation
    result = run_once(benchmark, run_backhaul_ablation, 8)
    print()
    print(result.render())
    fiber = result.point("fiber")
    satellite = result.point("satellite")
    # Magma's attach latency is backhaul-independent (radio protocols
    # terminate at the site): satellite within 5% of fiber.
    assert satellite.magma_median_latency == pytest.approx(
        fiber.magma_median_latency, rel=0.05)
    # The baseline's latency balloons with backhaul RTT (every NAS round
    # trip crosses it): satellite >= 5x fiber.
    assert satellite.baseline_median_latency >= \
        5 * fiber.baseline_median_latency
    # Both still eventually succeed on clean (if slow) links.
    for point in result.points:
        assert point.magma_csr == 1.0


@pytest.mark.benchmark(group="ablation-idle")
def test_ablation_idle_mode_signalling(benchmark):
    from repro.experiments.ablation_idle_mode import run_idle_mode_ablation
    result = run_once(benchmark, run_idle_mode_ablation, 30, 30.0, 240.0)
    print()
    print(result.render())
    detach = result.point("detach")
    idle = result.point("idle")
    # Same delivery...
    assert detach.success_rate >= 0.95
    assert idle.success_rate >= 0.95
    assert abs(detach.cycles - idle.cycles) <= 0.2 * detach.cycles
    # ...but idle-mode devices pay one full attach each, then cheap
    # service requests: >= 3x less control-plane CPU.
    assert idle.full_attaches == 30
    assert detach.full_attaches >= 3 * idle.full_attaches
    assert detach.cp_core_seconds >= 3 * idle.cp_core_seconds
