"""IoT workload: many devices, occasional tiny messages (§4.2).

The paper uses IoT as the canonical *control-plane-heavy* workload: large
numbers of devices that attach, exchange a few kilobytes, and detach (or
idle and periodically send service requests).  Per-device throughput is
negligible; the load is all signaling - which is what stresses the CUPS
dimensioning question Figs. 7-8 explore.
"""

from __future__ import annotations

from typing import List, Optional

from ..lte.ue import Ue
from ..record import record
from ..sim.kernel import Simulator
from ..sim.monitor import Monitor
from ..sim.rng import RngRegistry

#: Bytes one device uploads per report.
REPORT_BYTES = 2_000
#: Each wait between reports is the interval scaled by up to this much
#: either way, so devices do not stay in lockstep.
JITTER_FRACTION = 0.5


@record
class IotCycleStats:
    attaches: int = 0
    successes: int = 0
    failures: int = 0
    bytes_sent: int = 0


class IotWorkload:
    """Devices repeatedly attach, send a small report, and detach."""

    MODE_DETACH = "detach"   # attach -> report -> detach each cycle
    MODE_IDLE = "idle"       # attach once, then idle <-> service-request

    def __init__(self, sim: Simulator, ues: List[Ue],
                 report_interval: float = 60.0,
                 rng: Optional[RngRegistry] = None,
                 monitor: Optional[Monitor] = None,
                 sessiond=None, mode: str = MODE_DETACH):
        if report_interval <= 0:
            raise ValueError("report interval must be positive")
        if mode not in (self.MODE_DETACH, self.MODE_IDLE):
            raise ValueError(f"unknown IoT mode {mode!r}")
        self.mode = mode
        self.sim = sim
        self.ues = ues
        self.report_interval = report_interval
        self.rng = (rng or RngRegistry(0)).stream("iot.jitter")
        self.monitor = monitor
        self.sessiond = sessiond
        self.stats = IotCycleStats()
        self._running = False

    def start(self) -> None:
        self._running = True
        for ue in self.ues:
            # Desynchronize devices across the first interval.
            offset = self.rng.uniform(0, self.report_interval)
            self.sim.call_later(offset, self._spawn_device, ue)

    def stop(self) -> None:
        self._running = False

    def _spawn_device(self, ue: Ue) -> None:
        self.sim.spawn(self._device_loop(ue), name=f"iot:{ue.imsi}")

    def _device_loop(self, ue: Ue):
        while self._running:
            self.stats.attaches += 1
            if ue.state == "idle":
                # Idle-mode device: a lightweight service request instead
                # of a full attach (much cheaper control-plane-wise).
                ok = yield ue.service_request()
            else:
                outcome = yield ue.attach()
                ok = outcome.success
            if ok:
                self.stats.successes += 1
                # Report upload: tiny, modeled as direct usage accounting.
                if self.sessiond is not None:
                    self.sessiond.record_usage(ue.imsi, dl_bytes=0,
                                               ul_bytes=REPORT_BYTES)
                self.stats.bytes_sent += REPORT_BYTES
                yield self.sim.timeout(1.0)  # time on air for the report
                if self.mode == self.MODE_IDLE:
                    ue.go_idle()
                else:
                    ue.detach()
            else:
                self.stats.failures += 1
            if self.monitor is not None:
                self.monitor.record("iot.cycle", self.sim.now,
                                    1.0 if ok else 0.0)
            interval = self.report_interval * (
                1.0 + self.rng.uniform(-JITTER_FRACTION, JITTER_FRACTION))
            yield self.sim.timeout(max(1.0, interval))

    def success_rate(self) -> float:
        if self.stats.attaches == 0:
            raise ValueError("no IoT cycles have run")
        return self.stats.successes / self.stats.attaches
