"""Figures 7 & 8: control/user plane separation (CUPS) on the virtual AGW.

One experiment produces both figures.  On an 8-vCPU virtual AGW we run a
saturating traffic load (the paper's commercial generator topped out at
2.5 Gbps) concurrently with a steady attach workload, and sweep the number
of cores *statically* allocated to the user plane (the rest go to the
control plane).  A final trial lets the kernel scheduler allocate flexibly.

- **Fig. 7**: steady-state throughput vs user-plane cores - rises with
  cores and plateaus once the traffic generator is the limit (the paper:
  "our traffic generator was unable to saturate the virtual AGW's user
  plane in the 5 CPU case and above").
- **Fig. 8**: median connection success rate vs user-plane cores - falls
  as the control plane is squeezed.
- **Flexible** achieves both high throughput and high CSR, the paper's
  punchline.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.agw import AgwConfig, virtual_profile
from ..deploy import build
from ..lte import CellConfig
from ..record import record
from ..workloads.attach_storm import AttachStorm
from ..workloads.traffic import TrafficEngine
from .common import format_table

TRAFFIC_GENERATOR_CAP_MBPS = 2_500.0
#: The virtual AGW's vCPUs, and the user-plane core counts swept on it
#: before the flexible trial.
VCPUS = 8
UP_CORE_OPTIONS = (1, 2, 3, 4, 5, 6)


@record
class CupsConfig:
    attach_rate: float = 14.0          # CP demand = 14 x 0.25 = 3.5 cores
    num_traffic_ues: int = 25
    traffic_per_ue_mbps: float = 100.0  # 25 x 100 = the generator's 2.5 Gbps
    measure_duration: float = 40.0
    seed: int = 0


@record
class CupsPoint:
    allocation: str                  # "1".."6" or "flexible"
    up_cores: Optional[int]
    throughput_mbps: float
    median_csr: float
    overall_csr: float


@record
class CupsResult:
    points: List[CupsPoint]
    generator_cap_mbps: float

    def render(self) -> str:
        rows = [[p.allocation, f"{p.throughput_mbps:.0f}",
                 f"{p.median_csr * 100:.1f}"] for p in self.points]
        return ("Figures 7+8 - CUPS sweep on the virtual AGW "
                f"(traffic generator cap {self.generator_cap_mbps:.0f} Mbps)\n"
                + format_table(["up_cores", "throughput_mbps",
                                "median_csr_pct"], rows))

    def point(self, allocation: str) -> CupsPoint:
        for p in self.points:
            if p.allocation == allocation:
                return p
        raise KeyError(f"no allocation {allocation!r}")


def run_cups_point(up_cores: Optional[int], config: CupsConfig) -> CupsPoint:
    """One allocation trial; ``up_cores=None`` means flexible scheduling."""
    hardware = virtual_profile(VCPUS)
    partition = None
    if up_cores is not None:
        if up_cores >= VCPUS:
            raise ValueError("must leave at least one control-plane core")
        partition = {"up": float(up_cores), "cp": float(VCPUS - up_cores)}
    num_attach_ues = int(config.attach_rate * config.measure_duration)
    site = build(
        num_enbs=2,
        num_ues=config.num_traffic_ues + num_attach_ues,
        config=AgwConfig(hardware=hardware, cpu_partition=partition,
                         mme_max_pending=60),
        # Emulated RAN: effectively unconstrained so the AGW is the
        # variable under test (the Landslide arrangement).
        cell_config=CellConfig(max_active_ues=2000, capacity_mbps=5_000.0,
                               per_ue_peak_mbps=200.0),
        seed=config.seed)
    traffic_ues = site.ues[:config.num_traffic_ues]
    attach_ues = site.ues[config.num_traffic_ues:]
    # Bring up the traffic population first (idle control plane).
    warmup = AttachStorm(site.sim, traffic_ues, rate_per_sec=8.0,
                         offered_mbps_after_attach=config.traffic_per_ue_mbps)
    warmup.start()
    site.sim.run_until_triggered(warmup.done, limit=site.sim.now + 600.0)
    engine = TrafficEngine(site.sim, site.agw, site.enbs,
                           monitor=site.monitor, record_usage=False)
    engine.start()
    site.sim.run(until=site.sim.now + 5.0)
    measure_start = site.sim.now
    storm = AttachStorm(site.sim, attach_ues,
                        rate_per_sec=config.attach_rate,
                        monitor=site.monitor)
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=site.sim.now + 900.0)
    engine.stop()
    tput = site.monitor.series("traffic.agw-1.achieved_mbps")
    steady = tput.between(measure_start + 5.0, measure_start +
                          config.measure_duration)
    throughput = steady.mean() if len(steady) else tput.last()
    return CupsPoint(
        allocation="flexible" if up_cores is None else str(up_cores),
        up_cores=up_cores,
        throughput_mbps=min(throughput, TRAFFIC_GENERATOR_CAP_MBPS),
        median_csr=storm.median_csr(),
        overall_csr=storm.overall_csr())


def run_cups(config: CupsConfig = None) -> CupsResult:
    config = config or CupsConfig()
    points = [run_cups_point(n, config) for n in UP_CORE_OPTIONS]
    points.append(run_cups_point(None, config))
    return CupsResult(points=points,
                      generator_cap_mbps=TRAFFIC_GENERATOR_CAP_MBPS)
