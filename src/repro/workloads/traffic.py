"""The fluid traffic engine: couples RAN, data plane, and CPU models.

Each ``TICK`` (1 s) the engine walks the chain a real packet would:

1. **Radio**: each cell shares its capacity max-min across its active UEs'
   offered rates.
2. **Policy/data plane**: the AGW's pipeline shapes each UE's
   radio-admitted rate through its session meters (fluid mode).
3. **CPU**: the total admitted rate becomes user-plane CPU demand; the share
   of it the CPU model served over the tick (which reflects contention with
   control-plane work - the heart of Figs. 5-8) scales what is forwarded.
4. **Accounting**: achieved bytes are recorded into ``sessiond`` (driving
   usage caps and OCS quotas) and into the experiment monitor.

Home-routed sessions additionally pass through the GTP aggregator's
capacity (§3.6).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from ..core.agw.gateway import AccessGateway
from ..core.federation.gtp_aggregator import GtpAggregator
from ..lte.enodeb import Enodeb
from ..sim.kernel import Simulator
from ..sim.monitor import Monitor

#: Seconds between accounting steps.
TICK = 1.0


class TrafficEngine:
    """Drives fluid user-plane traffic for one AGW's cell site(s)."""

    def __init__(self, sim: Simulator, agw: AccessGateway,
                 enbs: Iterable[Enodeb], monitor: Optional[Monitor] = None,
                 gtpa: Optional[GtpAggregator] = None,
                 record_usage: bool = True):
        self.sim = sim
        self.agw = agw
        self.enbs = list(enbs)
        self.monitor = monitor if monitor is not None else agw.context.monitor
        self.gtpa = gtpa
        self.record_usage = record_usage
        self._running = False
        self._up_work = agw.user_plane_work()  # integrals at the last step
        self.last_achieved_mbps = 0.0
        self.last_admitted_mbps = 0.0
        self.last_radio_mbps = 0.0

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.spawn(self._loop(), name=f"traffic:{self.agw.node}")

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        while self._running:
            yield self.sim.timeout(TICK)
            if not self._running:
                return
            self.step()

    def step(self) -> float:
        """One accounting tick; returns achieved aggregate Mbps."""
        now = self.sim.now
        # 1. Radio allocation per cell.
        radio_rates: Dict[str, float] = {}
        for enb in self.enbs:
            radio_rates.update(enb.cell.allocate())
        self.last_radio_mbps = sum(radio_rates.values())
        # 2. Policy shaping through the data plane (fluid walk).
        admitted: Dict[str, float] = {}
        for imsi, radio_mbps in radio_rates.items():
            if radio_mbps <= 0:
                continue
            admitted[imsi] = self.agw.admitted_downlink(imsi, radio_mbps)
        # 2b. Home-routed sessions also traverse the GTP aggregator.
        if self.gtpa is not None:
            for imsi in list(admitted):
                session = self.agw.sessiond.session(imsi)
                if session is not None and session.home_routed:
                    self.gtpa.offer(self.agw.node, imsi, admitted[imsi])
            gtpa_alloc = self.gtpa.allocate()
            for imsi in list(admitted):
                session = self.agw.sessiond.session(imsi)
                if session is not None and session.home_routed:
                    admitted[imsi] = gtpa_alloc.get((self.agw.node, imsi), 0.0)
        total_admitted = sum(admitted.values())
        self.last_admitted_mbps = total_admitted
        # 3. CPU: scale by the share of the offered work the CPU actually
        # served since the last step (a point sample of the service rate
        # would alias against task arrivals), then set the next demand.
        offered, served = self.agw.user_plane_work()
        asked = offered - self._up_work[0]
        fraction = ((served - self._up_work[1]) / asked) if asked > 0 else 1.0
        self._up_work = (offered, served)
        self.agw.set_user_plane_load(total_admitted)
        achieved_total = 0.0
        for imsi, mbps in admitted.items():
            achieved = mbps * fraction
            achieved_total += achieved
            if achieved <= 0:
                continue
            used_bytes = int(achieved * 1e6 / 8.0 * TICK)
            if self.record_usage:
                self.agw.sessiond.record_usage(imsi, dl_bytes=used_bytes,
                                               ul_bytes=0)
            self.agw.pipelined.record_fluid_usage(imsi, achieved, TICK)
        self.last_achieved_mbps = achieved_total
        self.monitor.record(f"traffic.{self.agw.node}.achieved_mbps", now,
                            achieved_total)
        self.monitor.record(f"traffic.{self.agw.node}.offered_mbps", now,
                            self.last_radio_mbps)
        return achieved_total
