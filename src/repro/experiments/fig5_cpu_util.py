"""Figure 5: AGW CPU utilization under the maximum "typical" workload.

The paper's workload (§4.1): 288 UEs attach at 3 UE/s to a 3-eNodeB cell
site on a bare-metal 4-core AGW; each UE then streams HTTP at 1.5 Mbps for
an aggregate offered load of 432 Mbps.  Expected result: all attaches are
accepted over ~1.5 minutes (the control-plane-dominated phase), after
which throughput holds at the full offered load - *the RAN, not the AGW,
is the bottleneck* - with AGW CPU comfortably below saturation.
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

PER_UE_MBPS = 1.5   # each UE's HTTP stream
BIN_WIDTH = 5.0     # seconds per plotted CPU/throughput point


@record
class Fig5Config:
    num_ues: int = 288
    num_enbs: int = 3
    attach_rate: float = 3.0
    steady_duration: float = 120.0   # seconds of steady state to observe
    seed: int = 0


@record
class Fig5Result:
    cpu_series: List[Tuple[float, float]]          # (t, utilization 0..1)
    throughput_series: List[Tuple[float, float]]   # (t, Mbps)
    attach_phase_end: float
    attach_csr: float
    ue_success_fraction: float
    offered_mbps: float
    steady_state_mbps: float
    steady_state_cpu: float
    peak_cpu: float

    def rows(self) -> List[List[object]]:
        return [[f"{t:.0f}", f"{cpu * 100:.1f}", f"{mbps:.1f}"]
                for (t, cpu), (_t2, mbps)
                in zip(self.cpu_series, self.throughput_series)]

    def render(self) -> str:
        header = (f"Figure 5 - AGW CPU and throughput "
                  f"(offered {self.offered_mbps:.0f} Mbps)\n"
                  f"attach phase ends ~{self.attach_phase_end:.0f}s, "
                  f"all UEs attached: "
                  f"{self.ue_success_fraction * 100:.0f}%, "
                  f"per-attempt CSR {self.attach_csr * 100:.1f}%, "
                  f"steady state {self.steady_state_mbps:.0f} Mbps "
                  f"at {self.steady_state_cpu * 100:.0f}% CPU\n")
        return header + format_table(
            ["time_s", "cpu_pct", "throughput_mbps"], self.rows())


def run_fig5(config: Fig5Config = None) -> Fig5Result:
    config = config or Fig5Config()
    site = build(
        num_enbs=config.num_enbs, num_ues=config.num_ues,
        config=AgwConfig(hardware=BARE_METAL),
        cell_config=CellConfig(max_active_ues=96, capacity_mbps=150.0),
        seed=config.seed)
    storm = AttachStorm(site.sim, site.ues,
                        rate_per_sec=config.attach_rate,
                        offered_mbps_after_attach=PER_UE_MBPS,
                        monitor=site.monitor,
                        retries=2)  # real UEs retry (T3411)
    engine = TrafficEngine(site.sim, site.agw, site.enbs,
                           monitor=site.monitor)
    start = site.sim.now
    storm.start()
    engine.start()
    attach_phase = config.num_ues / config.attach_rate
    steady_t0 = start + attach_phase + min(20.0, config.steady_duration / 2)
    # The CPU model keeps a busy integral, not a series: sample it at the
    # plot's resolution, and once more where the steady window opens.
    cpu = site.agw.context.cpu
    marks = [(start, cpu.busy_core_seconds())]

    def mark():
        marks.append((site.sim.now, cpu.busy_core_seconds()))

    sampler = site.sim.schedule_periodic(BIN_WIDTH, mark)
    site.sim.run(until=steady_t0)
    steady_busy0 = cpu.busy_core_seconds()
    site.sim.run(until=start + attach_phase + config.steady_duration)
    sampler.cancel()
    engine.stop()
    if site.sim.now > marks[-1][0]:
        mark()

    cpu_bins = [(t0, (b1 - b0) / (cpu.cores * (t1 - t0)))
                for (t0, b0), (t1, b1) in zip(marks, marks[1:])]
    steady_cpu = ((cpu.busy_core_seconds() - steady_busy0)
                  / (cpu.cores * (site.sim.now - steady_t0)))
    tput = site.monitor.series("traffic.agw-1.achieved_mbps")
    tput_bins = tput.binned(BIN_WIDTH, t0=start, t1=site.sim.now, agg="mean")
    steady_tput = tput.between(steady_t0, site.sim.now).mean()
    offered = config.num_ues * PER_UE_MBPS
    finished = [r.finished_at for r in storm.records]
    return Fig5Result(
        cpu_series=[(t - start, v) for t, v in cpu_bins],
        throughput_series=[(t - start, v) for t, v in tput_bins],
        attach_phase_end=(max(finished) - start) if finished else 0.0,
        attach_csr=storm.overall_csr(),
        ue_success_fraction=storm.ue_success_fraction(),
        offered_mbps=offered,
        steady_state_mbps=steady_tput,
        steady_state_cpu=steady_cpu,
        peak_cpu=max(v for _t, v in cpu_bins),
    )
