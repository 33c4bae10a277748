"""Figure 5 bench: AGW CPU utilization under the typical-site workload.

Paper result: 288 UEs attach at 3 UE/s, then stream 1.5 Mbps each
(432 Mbps aggregate).  All attaches accepted over ~1.5 minutes; steady
state holds the full offered load with CPU headroom - the RAN, not the
AGW, is the bottleneck.
"""

import pytest

from repro.experiments.fig5_cpu_util import Fig5Config, run_fig5

from conftest import run_once


@pytest.mark.benchmark(group="fig5")
def test_fig5_cpu_utilization(benchmark):
    result = run_once(benchmark, run_fig5,
                      Fig5Config(steady_duration=60.0))
    print()
    print(result.render())

    # Shape claims from the paper:
    # 1. Every UE ends up attached ("accepts attach requests from all new
    #    users"); per-attempt CSR stays near 100% at 3 UE/s.
    assert result.ue_success_fraction == 1.0
    assert result.attach_csr >= 0.97
    # 2. The attach phase spans roughly 288/3 = 96 s ("~1.5 minutes").
    assert 90.0 <= result.attach_phase_end <= 130.0
    # 3. Steady-state throughput reaches the full offered load (RAN-limited).
    assert result.steady_state_mbps == pytest.approx(
        result.offered_mbps, rel=0.02)
    # 4. The AGW has CPU headroom in steady state (it is not the bottleneck).
    assert result.steady_state_cpu < 0.7
    # 5. The attach phase is the CPU-intensive part.
    assert result.peak_cpu > result.steady_state_cpu
