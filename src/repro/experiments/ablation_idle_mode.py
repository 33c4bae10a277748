"""Ablation: idle-mode signalling vs attach/detach churn for IoT (§4.2).

The paper motivates CUPS with the IoT workload: "large numbers of devices
that only exchange occasional small messages" stress the control plane.
How *hard* they stress it depends on the signalling pattern: a device that
detaches after every report pays the full attach (authentication crypto,
session setup) each cycle, while a device that goes ECM-IDLE pays a cheap
service request.  This ablation runs the same report schedule both ways on
the bare-metal AGW and compares control-plane cost and delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.agw import AgwConfig, BARE_METAL
from ..lte import CellConfig
from ..workloads import IotWorkload
from .common import build_emulated_site, format_table


@dataclass
class IdleModePoint:
    mode: str
    devices: int
    cycles: int
    success_rate: float
    full_attaches: int
    cp_core_seconds: float     # control-plane CPU consumed


@dataclass
class IdleModeResult:
    points: List[IdleModePoint]
    duration: float

    def rows(self) -> List[List[object]]:
        return [[p.mode, p.devices, p.cycles,
                 f"{p.success_rate * 100:.0f}", p.full_attaches,
                 f"{p.cp_core_seconds:.1f}"]
                for p in self.points]

    def render(self) -> str:
        header = (f"IoT signalling ablation ({self.duration:.0f}s of "
                  f"report cycles; lower CPU is better)\n")
        return header + format_table(
            ["mode", "devices", "cycles", "success_pct", "full_attaches",
             "cp_core_seconds"], self.rows())

    def point(self, mode: str) -> IdleModePoint:
        for p in self.points:
            if p.mode == mode:
                return p
        raise KeyError(mode)


def _run_mode(mode: str, devices: int, report_interval: float,
              duration: float, seed: int) -> IdleModePoint:
    site = build_emulated_site(
        num_enbs=2, num_ues=devices,
        config=AgwConfig(hardware=BARE_METAL),
        cell_config=CellConfig(max_active_ues=500),
        seed=seed)
    iot = IotWorkload(site.sim, site.ues, report_interval=report_interval,
                      sessiond=site.agw.sessiond, rng=site.rng, mode=mode)
    iot.start()
    site.sim.run(until=site.sim.now + duration)
    iot.stop()
    return IdleModePoint(
        mode=mode, devices=devices, cycles=iot.stats.attaches,
        success_rate=iot.success_rate(),
        full_attaches=site.agw.mme.stats["attach_requests"],
        cp_core_seconds=site.agw.context.cpu.busy_core_seconds("cp"))


def run_idle_mode_ablation(devices: int = 30,
                           report_interval: float = 30.0,
                           duration: float = 240.0,
                           seed: int = 0) -> IdleModeResult:
    points = [
        _run_mode(IotWorkload.MODE_DETACH, devices, report_interval,
                  duration, seed),
        _run_mode(IotWorkload.MODE_IDLE, devices, report_interval,
                  duration, seed),
    ]
    return IdleModeResult(points=points, duration=duration)
