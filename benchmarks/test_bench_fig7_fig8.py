"""Figures 7 & 8 bench: control/user plane separation on the virtual AGW.

Paper results: steady-state throughput rises with user-plane cores until
the 2.5 Gbps traffic generator becomes the limit (at 5 cores); CSR falls
as the control plane is squeezed; *flexible* kernel scheduling delivers
both high throughput and high CSR.
"""

import pytest

from repro.experiments.cups import CupsConfig, run_cups

from conftest import run_once


@pytest.mark.benchmark(group="fig7-fig8")
def test_fig7_fig8_cups_sweep(benchmark):
    result = run_once(benchmark, run_cups,
                      CupsConfig(measure_duration=30.0))
    print()
    print(result.render())

    static = [p for p in result.points if p.up_cores is not None]
    flexible = result.point("flexible")

    # Fig. 7 shape: throughput grows ~linearly with user-plane cores...
    for point in static:
        if point.up_cores <= 4:
            assert point.throughput_mbps == pytest.approx(
                500.0 * point.up_cores, rel=0.1)
    # ...and plateaus at the traffic generator's 2.5 Gbps from 5 cores up.
    for point in static:
        if point.up_cores >= 5:
            assert point.throughput_mbps == pytest.approx(
                result.generator_cap_mbps, rel=0.05)

    # Fig. 8 shape: CSR high with few UP cores, degraded with many.
    assert result.point("1").median_csr >= 0.99
    assert result.point("6").median_csr < 0.8
    csrs = [p.median_csr for p in static]
    assert all(a >= b - 0.05 for a, b in zip(csrs, csrs[1:]))

    # The punchline: flexible gets (near-)max throughput AND high CSR.
    assert flexible.median_csr >= 0.95
    assert flexible.throughput_mbps >= 0.85 * result.generator_cap_mbps
