"""Calibration checks: the §4.1-4.2 operating points our model must hit.

These are the anchors DESIGN.md §5 commits to:

- bare-metal AGW: ~2 attach/s under a saturated user plane (Fig. 6 text);
- 4-vCPU virtual AGW: 16 attaches/s, "which would saturate the RAN
  capacity of the typical site in 18 seconds" (288 UEs / 16 per second);
- 432 Mbps of forwarding leaves ample CPU headroom on the bare-metal AGW.
"""

from __future__ import annotations

from ..core.agw import AgwConfig, BARE_METAL, VIRTUAL_4VCPU
from ..deploy import build
from ..lte import CellConfig
from ..record import record
from ..workloads.attach_storm import AttachStorm
from .common import format_table


@record
class CalibrationResult:
    bare_metal_pure_attach_rate: float
    bare_metal_loaded_attach_rate: float
    virtual_attach_rate: float
    typical_site_saturation_seconds: float
    forwarding_432_cpu_fraction: float

    def rows(self):
        return [
            ["bare-metal attach capacity (idle UP)",
             f"{self.bare_metal_pure_attach_rate:.1f}/s", "~4/s"],
            ["bare-metal attach capacity (saturated UP)",
             f"{self.bare_metal_loaded_attach_rate:.1f}/s", "~2/s (paper)"],
            ["4-vCPU virtual AGW attach capacity",
             f"{self.virtual_attach_rate:.1f}/s", "16/s (paper)"],
            ["time for vAGW to fill the typical site",
             f"{self.typical_site_saturation_seconds:.0f}s", "18s (paper)"],
            ["CPU share forwarding 432 Mbps (bare metal)",
             f"{self.forwarding_432_cpu_fraction * 100:.0f}%", "<100%"],
        ]

    def render(self) -> str:
        return "Calibration anchors\n" + format_table(
            ["operating point", "model", "paper"], self.rows())


def measured_attach_capacity(hardware, background_mbps: float = 0.0,
                             seed: int = 0) -> float:
    """Measure sustainable attach throughput by overloading the AGW."""
    offered_rate = 2.0 * hardware.attach_capacity_per_sec()
    num_ues = int(offered_rate * 30)
    num_enbs = 6
    site = build(
        num_enbs=num_enbs, num_ues=num_ues + num_enbs * 4,
        config=AgwConfig(hardware=hardware),
        cell_config=CellConfig(max_active_ues=2000, capacity_mbps=5_000.0,
                               per_ue_peak_mbps=500.0),
        seed=seed)
    if background_mbps > 0:
        background = site.ues[num_ues:]
        warmup = AttachStorm(site.sim, background, rate_per_sec=2.0,
                             offered_mbps_after_attach=background_mbps)
        warmup.start()
        site.sim.run_until_triggered(warmup.done, limit=site.sim.now + 600)
        from ..workloads.traffic import TrafficEngine
        engine = TrafficEngine(site.sim, site.agw, site.enbs,
                               record_usage=False)
        engine.start()
        site.sim.run(until=site.sim.now + 5.0)
    storm = AttachStorm(site.sim, site.ues[:num_ues],
                        rate_per_sec=offered_rate)
    start = site.sim.now
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=site.sim.now + 900.0)
    successes = [r for r in storm.records if r.success]
    if not successes:
        return 0.0
    span = max(r.finished_at for r in successes) - start
    return len(successes) / span if span > 0 else 0.0


def run_calibration(seed: int = 0) -> CalibrationResult:
    bare_pure = measured_attach_capacity(BARE_METAL, seed=seed)
    bare_loaded = measured_attach_capacity(BARE_METAL,
                                           background_mbps=200.0, seed=seed)
    virtual = measured_attach_capacity(VIRTUAL_4VCPU, seed=seed)
    saturation = 288.0 / virtual if virtual > 0 else float("inf")
    forwarding_fraction = (432.0 * BARE_METAL.up_cost_per_mbps /
                           BARE_METAL.cores)
    return CalibrationResult(
        bare_metal_pure_attach_rate=bare_pure,
        bare_metal_loaded_attach_rate=bare_loaded,
        virtual_attach_rate=virtual,
        typical_site_saturation_seconds=saturation,
        forwarding_432_cpu_fraction=forwarding_fraction)
