"""Ablation: MME overload protection vs congestion collapse.

The paper observes that per-AGW control-plane performance is limited and
that CSR "falls linearly" past the knee (Fig. 6).  Getting a *linear* fall
rather than a collapse requires the MME to shed load: without admission
control, every over-capacity attach still consumes CPU through its doomed
stages, stealing service from attaches that could have succeeded - goodput
collapses far below capacity.  Magma's MME applies exactly this kind of
congestion control.

This ablation offers the same over-capacity attach storm to AGWs with and
without admission control and compares delivered CSR.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.agw import AgwConfig, BARE_METAL
from ..deploy import build
from ..lte import CellConfig
from ..record import record
from ..workloads.attach_storm import AttachStorm
from .common import format_table


@record
class OverloadPoint:
    rate: float
    csr_with_protection: float
    csr_without_protection: float


@record
class OverloadResult:
    points: List[OverloadPoint]
    capacity_per_sec: float

    def rows(self) -> List[List[object]]:
        return [[p.rate, f"{p.csr_with_protection * 100:.1f}",
                 f"{p.csr_without_protection * 100:.1f}"]
                for p in self.points]

    def render(self) -> str:
        header = (f"Overload-protection ablation (bare-metal AGW, pure "
                  f"attach capacity {self.capacity_per_sec:.0f}/s)\n")
        return header + format_table(
            ["attach_rate", "csr_with_shedding_pct", "csr_without_pct"],
            self.rows())


def _run_storm(rate: float, protected: bool, duration: float,
               seed: int) -> float:
    max_pending = 25 if protected else 1_000_000
    num_ues = max(20, int(rate * duration))
    site = build(
        num_enbs=4, num_ues=num_ues,
        config=AgwConfig(hardware=BARE_METAL, mme_max_pending=max_pending),
        cell_config=CellConfig(max_active_ues=500, capacity_mbps=5_000.0),
        seed=seed)
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=rate)
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=site.sim.now + 1_800.0)
    return storm.overall_csr()


def run_overload_ablation(rates: Tuple[float, ...] = (6.0, 8.0, 12.0),
                          duration: float = 30.0,
                          seed: int = 0) -> OverloadResult:
    points = []
    for rate in rates:
        points.append(OverloadPoint(
            rate=rate,
            csr_with_protection=_run_storm(rate, True, duration, seed),
            csr_without_protection=_run_storm(rate, False, duration, seed)))
    return OverloadResult(points=points,
                          capacity_per_sec=BARE_METAL.attach_capacity_per_sec())
