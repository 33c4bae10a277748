"""§4.3.2 bench: orchestrator control-plane scaling.

Paper result: 5,370 ad-hoc AGWs run against a single six-VM orchestrator
cluster (~$4,000/month) - central load stays small (a constant cost per
check-in) because runtime state stays in the AGWs.
"""

import pytest

from repro.experiments.scaling import FREEDOMFI_AGWS, run_scaling

from conftest import run_once


@pytest.mark.benchmark(group="scaling")
def test_orchestrator_scaling_sweep(benchmark):
    result = run_once(benchmark, run_scaling,
                      (50, 200, 800, 2000, FREEDOMFI_AGWS), 60.0, 150.0)
    print()
    print(result.render())

    by_n = {p.num_agws: p for p in result.points}
    # Every size: all check-ins served, all gateways converged on config.
    for point in result.points:
        assert point.checkin_success_fraction >= 0.99
        assert point.convergence_fraction >= 0.99
    # The FreedomFi-scale point runs at a small fraction of the cluster.
    assert by_n[FREEDOMFI_AGWS].orchestrator_cpu_util < 0.25
    # A check-in costs the orchestrator the same whatever the network size
    # (runtime state never leaves the AGWs): the time-weighted CPU share
    # per check-in/s is constant across the sweep, so load is linear in the
    # check-in rate and nothing else.
    per_checkin = [p.orchestrator_cpu_util / p.checkin_rate
                   for p in result.points]
    reference = per_checkin[-1]
    for share in per_checkin:
        assert share == pytest.approx(reference, rel=0.15)
