"""Calibration bench: the §4.1-4.2 operating points the model must hit.

These anchor the CPU model to the paper's reported numbers (2 attach/s
bare-metal under load, 16 attach/s on the 4-vCPU virtual AGW, 432 Mbps
with headroom) so the figure benches measure shape, not fitting.
"""

import pytest

from repro.experiments.calibration import run_calibration

from conftest import run_once


@pytest.mark.benchmark(group="calibration")
def test_calibration_anchors(benchmark):
    result = run_once(benchmark, run_calibration)
    print()
    print(result.render())

    # Bare metal: ~2 attach/s when the user plane is saturated (Fig. 6).
    assert result.bare_metal_loaded_attach_rate == pytest.approx(2.0,
                                                                 rel=0.25)
    # Idle bare metal sustains roughly double that.
    assert result.bare_metal_pure_attach_rate == pytest.approx(4.0, rel=0.25)
    # Virtual 4-vCPU AGW: ~16 attach/s (we accept >= 12 measured; the
    # measurement methodology itself costs some throughput).
    assert result.virtual_attach_rate >= 12.0
    # "Would saturate the RAN capacity of the typical site in 18 seconds":
    # 288 UEs / 16 per second; allow the same measurement slack.
    assert result.typical_site_saturation_seconds <= 25.0
    # 432 Mbps of forwarding leaves most of the bare-metal CPU free.
    assert result.forwarding_432_cpu_fraction < 0.6
