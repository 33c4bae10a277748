"""Figure 6: maximum supported attach rates on the bare-metal AGW.

The paper's "worst case" control-plane workload: a surge of new UEs
attaching while already-attached UEs *saturate the data plane*.  The
connection success rate (CSR - successful attempts over total attempts, in
5-second bins) stays at ~100% up to 2 UE/s on the bare-metal AGW, then
falls roughly linearly: the MME component is the limit.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.agw import AgwConfig, BARE_METAL
from ..deploy import build
from ..lte import CellConfig
from ..record import record
from ..workloads.attach_storm import AttachStorm
from ..workloads.traffic import TrafficEngine
from .common import format_table

DEFAULT_RATES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0)
BACKGROUND_MBPS = 150.0   # per background UE: saturate each cell


@record
class Fig6Config:
    rates: Tuple[float, ...] = DEFAULT_RATES
    num_enbs: int = 6
    background_ues_per_enb: int = 6
    storm_duration: float = 45.0     # seconds of attach attempts per rate
    min_storm_ues: int = 20
    seed: int = 0


@record
class Fig6Point:
    rate: float
    csr: float
    attempts: int
    successes: int
    median_bin_csr: float


@record
class Fig6Result:
    points: List[Fig6Point]
    knee_rate: float    # last rate with CSR >= 99%

    def rows(self) -> List[List[object]]:
        return [[p.rate, f"{p.csr * 100:.1f}", p.attempts, p.successes]
                for p in self.points]

    def render(self) -> str:
        header = (f"Figure 6 - CSR vs attach rate (bare-metal AGW, "
                  f"saturated data plane); knee at ~{self.knee_rate} UE/s\n")
        return header + format_table(
            ["attach_rate_ue_s", "csr_pct", "attempts", "successes"],
            self.rows())


def run_fig6_point(rate: float, config: Fig6Config) -> Fig6Point:
    """One trial: saturate the data plane, then storm at ``rate``."""
    num_background = config.num_enbs * config.background_ues_per_enb
    num_storm = max(config.min_storm_ues,
                    int(rate * config.storm_duration))
    site = build(
        num_enbs=config.num_enbs, num_ues=num_background + num_storm,
        config=AgwConfig(hardware=BARE_METAL),
        cell_config=CellConfig(max_active_ues=96, capacity_mbps=150.0,
                               per_ue_peak_mbps=150.0),
        seed=config.seed)
    background = site.ues[:num_background]
    storm_ues = site.ues[num_background:]
    # Phase 1: background UEs attach (idle AGW: fast) and begin saturating.
    warmup = AttachStorm(site.sim, background, rate_per_sec=2.0,
                         offered_mbps_after_attach=BACKGROUND_MBPS)
    warmup.start()
    site.sim.run_until_triggered(warmup.done, limit=site.sim.now + 600.0)
    if warmup.overall_csr() < 1.0:
        raise RuntimeError("background warmup failed to attach cleanly")
    engine = TrafficEngine(site.sim, site.agw, site.enbs,
                           monitor=site.monitor, record_usage=False)
    engine.start()
    site.sim.run(until=site.sim.now + 5.0)  # let the user plane saturate
    # Phase 2: the measured attach storm.
    storm = AttachStorm(site.sim, storm_ues, rate_per_sec=rate,
                        monitor=site.monitor)
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=site.sim.now + 900.0)
    engine.stop()
    return Fig6Point(rate=rate, csr=storm.overall_csr(),
                     attempts=len(storm.records),
                     successes=storm.success_count(),
                     median_bin_csr=storm.median_csr())


def run_fig6(config: Fig6Config = None) -> Fig6Result:
    config = config or Fig6Config()
    points = [run_fig6_point(rate, config) for rate in config.rates]
    knee = max((p.rate for p in points if p.csr >= 0.99), default=0.0)
    return Fig6Result(points=points, knee_rate=knee)
