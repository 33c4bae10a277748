"""Figure 6 bench: connection success rate vs attach rate (bare-metal AGW).

Paper result: with the data plane saturated, CSR stays ~100% up to 2 UE/s
and falls roughly linearly beyond - the MME component is the limit.
"""

import pytest

from repro.experiments.fig6_attach_rate import Fig6Config, run_fig6

from conftest import run_once


@pytest.mark.benchmark(group="fig6")
def test_fig6_attach_rate_sweep(benchmark):
    config = Fig6Config(rates=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0),
                        storm_duration=30.0)
    result = run_once(benchmark, run_fig6, config)
    print()
    print(result.render())

    by_rate = {p.rate: p.csr for p in result.points}
    # 1. Full success through 2 UE/s (the paper's knee).
    for rate in (0.5, 1.0, 1.5, 2.0):
        assert by_rate[rate] >= 0.99, f"CSR at {rate}/s: {by_rate[rate]}"
    assert result.knee_rate == pytest.approx(2.0)
    # 2. Monotone decline beyond the knee.
    declining = [by_rate[r] for r in (2.5, 3.0, 4.0, 6.0, 8.0)]
    assert all(a >= b - 0.02 for a, b in zip(declining, declining[1:]))
    assert by_rate[3.0] < 0.95
    assert by_rate[8.0] < 0.5
    # 3. Roughly linear (inverse-rate) fall: CSR ~ knee/rate within a band.
    for rate in (3.0, 4.0, 6.0, 8.0):
        expected = 2.0 / rate
        assert 0.4 * expected <= by_rate[rate] <= 1.8 * expected
