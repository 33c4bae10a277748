"""§4.3.2: orchestrator control-plane scaling (the FreedomFi deployment).

The largest Magma network ran 5,370 AGWs and 880 eNodeBs against a single
six-VM orchestrator (~$4,000/month).  Even without user traffic, the
orchestrator carries device check-ins, configuration pushes, and metrics
ingest.  This experiment sweeps the gateway count and measures orchestrator
CPU utilization and config-convergence behaviour, reproducing the claim
that *the central control plane's load grows slowly with network size*
because runtime state never leaves the AGWs (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..core.orchestrator import Orchestrator, OrchestratorConfig
from ..net.rpc import RpcChannel, RpcError
from ..net.simnet import Link, Network
from ..sim import Monitor, RngRegistry, Simulator
from ..workloads.fleet import CohortSpec, UeFleet
from .common import format_table

FREEDOMFI_AGWS = 5_370

# Stub AGWs model the virtual profile (§4.2): 16 attaches/s on 4 vCPUs.
STUB_CORES = 4.0
STUB_ATTACH_CAPACITY_PER_SEC = 16.0
STUB_ATTACH_CPU_COST = 0.25          # core-seconds per attach
STUB_UP_COST_PER_MBPS = 0.002        # core-seconds/s per Mbps forwarded
STUB_BASE_CPU_UTIL = 0.05            # magmad/housekeeping floor


class AgwStub:
    """A lightweight check-in client standing in for a full AGW.

    The scaling question is about orchestrator-side load, so the gateway
    side only needs to produce the same message pattern a real ``magmad``
    does: periodic check-ins carrying status and a metrics bundle, pulling
    config when stale.  Each stub also implements the fleet-host protocol
    (``fleet_attach`` / ``fleet_detach`` / ``fleet_set_load``) so a
    :class:`~repro.workloads.fleet.UeFleet` can load it with a realistic
    subscriber population — check-ins then report *real* session counts,
    attach rates, and a CPU figure derived from the carried load, instead
    of the zeroed placeholders an empty stub would send.
    """

    def __init__(self, sim: Simulator, network: Network, node: str,
                 orc_node: str, interval: float, offset: float):
        self.sim = sim
        self.node = node
        self.interval = interval
        self.config_version = 0
        self.checkins_ok = 0
        self.checkins_failed = 0
        # Fleet-host state: the subscriber load this gateway carries.
        self.sessions = 0
        self.attach_requests = 0
        self.attach_accepted = 0
        self.offered_mbps = 0.0
        self._attach_credit = 0.0
        self._attach_rate = 0.0      # accepted/s over the last fleet tick
        self._last_requests = 0
        self._last_accepted = 0
        network.add_node(node)
        self._channel = RpcChannel(sim, network, node, orc_node)
        sim.call_later(offset, self._start)

    # -- fleet-host protocol ---------------------------------------------------

    def fleet_attach(self, n: int, dt: float) -> int:
        """Admit up to the stub's calibrated attach capacity per tick."""
        self.attach_requests += n
        per_tick = STUB_ATTACH_CAPACITY_PER_SEC * dt
        credit = min(self._attach_credit + per_tick, per_tick)
        accepted = min(n, int(credit))
        self._attach_credit = credit - accepted
        self.attach_accepted += accepted
        self.sessions += accepted
        self._attach_rate = accepted / dt
        return accepted

    def fleet_detach(self, n: int) -> int:
        ended = min(n, self.sessions)
        self.sessions -= ended
        return ended

    def fleet_set_load(self, offered_mbps: float) -> None:
        self.offered_mbps = offered_mbps

    def cpu_util(self) -> float:
        """CPU share implied by the carried load (virtual profile)."""
        busy = (self._attach_rate * STUB_ATTACH_CPU_COST
                + self.offered_mbps * STUB_UP_COST_PER_MBPS)
        return min(1.0, STUB_BASE_CPU_UTIL + busy / STUB_CORES)

    # -- check-in loop ---------------------------------------------------------

    def _start(self) -> None:
        self.sim.spawn(self._loop(), name=f"stub:{self.node}")

    def _loop(self):
        while True:
            dt = self.interval
            request = {
                "gateway_id": self.node,
                "config_version": self.config_version,
                "status": {"sessions": self.sessions},
                "metrics": {
                    "attach_requests":
                        (self.attach_requests - self._last_requests) / dt,
                    "attach_accepted":
                        (self.attach_accepted - self._last_accepted) / dt,
                    "sessions_active": float(self.sessions),
                    "cpu_util": self.cpu_util(),
                },
            }
            self._last_requests = self.attach_requests
            self._last_accepted = self.attach_accepted
            try:
                response = yield self._channel.call("statesync", "checkin",
                                                    request, deadline=10.0)
                self.checkins_ok += 1
                self.config_version = response["config_version"]
            except RpcError:
                self.checkins_failed += 1
            yield self.sim.timeout(self.interval)


@dataclass
class ScalingPoint:
    num_agws: int
    checkin_rate: float              # check-ins/s arriving
    orchestrator_cpu_util: float     # time-weighted share, steady state
    checkin_success_fraction: float
    convergence_fraction: float      # gateways on latest config at the end
    subscribers: int = 0             # fleet population across all AGWs
    sessions: int = 0                # attached subscribers at the end


@dataclass
class ScalingResult:
    points: List[ScalingPoint]
    orchestrator_cores: float

    def rows(self) -> List[List[object]]:
        return [[p.num_agws, p.subscribers, p.sessions,
                 f"{p.checkin_rate:.1f}",
                 f"{p.orchestrator_cpu_util * 100:.2f}",
                 f"{p.checkin_success_fraction * 100:.1f}",
                 f"{p.convergence_fraction * 100:.1f}"]
                for p in self.points]

    def render(self) -> str:
        header = (f"Orchestrator scaling (cluster of "
                  f"{self.orchestrator_cores:.0f} cores)\n")
        return header + format_table(
            ["agws", "subs", "sessions", "checkins_per_s", "orc_cpu_pct",
             "checkin_ok_pct", "converged_pct"], self.rows())


def run_scaling_point(num_agws: int, checkin_interval: float = 60.0,
                      duration: float = 180.0, seed: int = 0,
                      provision_burst: int = 20,
                      ues_per_agw: int = 100,
                      fleet_tick: float = 5.0,
                      num_shards: int = 0) -> ScalingPoint:
    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    monitor = Monitor()
    orc = Orchestrator(sim, network, "orc", monitor=monitor,
                       num_shards=num_shards)
    offsets = rng.stream("checkin.offsets")
    stubs = []
    for i in range(num_agws):
        node = f"agw-{i}"
        # Sharded deployments hash each gateway to its owning shard's
        # node; unsharded ones keep the single "orc" endpoint.
        target = orc.shard_node_for(node)
        network.connect(node, target, Link(latency=0.02))
        stubs.append(AgwStub(sim, network, node, target,
                             interval=checkin_interval,
                             offset=offsets.uniform(0, checkin_interval)))
    # Load every gateway with a cohort-aggregated subscriber fleet so the
    # check-ins carry realistic session counts and derived CPU figures
    # (the paper's gateways are never empty; the orchestrator's load must
    # stay flat even when they aren't).
    fleet = None
    if ues_per_agw > 0:
        fleet = UeFleet(
            sim, rng, stubs,
            [CohortSpec("subs", size=num_agws * ues_per_agw,
                        attach_rate=0.01, detach_rate=0.001,
                        idle_rate=0.002, resume_rate=0.01,
                        traffic_mbps=0.02)],
            monitor=monitor, tick=fleet_tick, name="scaling")
        fleet.start()
    # A provisioning burst partway through: every gateway must converge.
    def provision():
        from ..core.agw import SubscriberProfile
        from ..lte import make_imsi
        for i in range(provision_burst):
            orc.add_subscriber(SubscriberProfile(imsi=make_imsi(i + 1)))

    sim.call_later(duration / 3, provision)
    # Time-weighted CPU share over the steady window [checkin_interval,
    # duration]; the hottest shard governs a sharded control plane.
    cpus = [shard.cpu for shard in orc.shards] or [orc.cpu]
    sim.run(until=checkin_interval)
    busy0 = [cpu.busy_core_seconds() for cpu in cpus]
    sim.run(until=duration)
    util = max((cpu.busy_core_seconds() - before)
               / (cpu.cores * (duration - checkin_interval))
               for cpu, before in zip(cpus, busy0))
    ok = sum(s.checkins_ok for s in stubs)
    failed = sum(s.checkins_failed for s in stubs)
    converged = sum(1 for s in stubs
                    if s.config_version == orc.store.version)
    return ScalingPoint(
        num_agws=num_agws,
        checkin_rate=num_agws / checkin_interval,
        orchestrator_cpu_util=util,
        checkin_success_fraction=ok / max(1, ok + failed),
        convergence_fraction=converged / max(1, num_agws),
        subscribers=fleet.population() if fleet is not None else 0,
        sessions=fleet.attached() if fleet is not None else 0)


def run_scaling(agw_counts=(50, 200, 800, 2000, FREEDOMFI_AGWS),
                checkin_interval: float = 60.0, duration: float = 180.0,
                seed: int = 0, num_shards: int = 0) -> ScalingResult:
    points = [run_scaling_point(n, checkin_interval, duration, seed,
                                num_shards=num_shards)
              for n in agw_counts]
    return ScalingResult(points=points,
                         orchestrator_cores=OrchestratorConfig().cores)
