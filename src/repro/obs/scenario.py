"""Traced demo scenario: an attach storm with the tracer on.

Used by ``python -m repro.obs`` and the CI smoke step: stands up an
emulated site, traces an attach storm (plus an idle/paging round trip and
a detach wave, so the exported trace shows more than one procedure type,
and an AGW crash and recovery, the post-mortem the flight recorder is
for), and returns the tracer for analysis/export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from ..deploy import Deployment, build
from ..workloads.attach_storm import AttachStorm
from .flightrec import FlightRecorder
from .tracing import Tracer


@dataclass
class TracedRun:
    site: Deployment
    tracer: Tracer
    storm: AttachStorm
    attach_successes: int


def run_traced_attach_storm(num_ues: int = 20, rate: float = 5.0,
                            seed: int = 1, sample_rate: float = 1.0,
                            num_enbs: int = 2) -> TracedRun:
    """Run a short attach storm with the tracer and flight recorder on."""
    site = build(num_enbs=num_enbs, num_ues=num_ues, seed=seed)
    tracer = Tracer(site.sim, site.rng, sample_rate=sample_rate)
    FlightRecorder(site.sim)
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=rate,
                        monitor=site.monitor)
    storm.start()
    site.sim.run_until_triggered(storm.done,
                                 limit=site.sim.now + 60.0 + num_ues / rate)
    attached: List = [ue for ue in site.ues if ue.is_registered]
    # Idle -> paging -> service-request round trip for a few UEs.
    for ue in attached[:3]:
        ue.go_idle()
    site.sim.run(until=site.sim.now + 2.0)
    for ue in attached[:3]:
        site.agw.page(ue.imsi)
    site.sim.run(until=site.sim.now + 5.0)
    # Graceful detaches close out the session lifecycle in the trace.
    for ue in attached[:2]:
        ue.detach(switch_off=False)
    site.sim.run(until=site.sim.now + 10.0)
    site.agw.crash()
    site.sim.run(until=site.sim.now + 5.0)
    site.agw.recover()
    site.sim.run(until=site.sim.now + 5.0)
    return TracedRun(site=site, tracer=tracer, storm=storm,
                     attach_successes=storm.success_count())


@dataclass
class HealthFleetRun:
    """Handles from :func:`run_health_fleet` for CLI/test inspection."""

    sim: Any
    network: Any
    orc: Any
    agws: List[Any]
    ues: List[Any]
    tracer: Tracer
    recorder: FlightRecorder
    monitor: Any
    report: Dict[str, Any]


def run_health_fleet(num_agws: int = 20, num_shards: int = 4,
                     ues_per_agw: int = 2, duration: float = 120.0,
                     seed: int = 7, checkin_interval: float = 5.0,
                     sample_rate: float = 1.0) -> HealthFleetRun:
    """A sharded fleet with real AGWs, health-scored end to end.

    Stands up ``num_agws`` full access gateways against a sharded
    orchestrator, attaches every subscriber (staggered, after the first
    check-in has synced config so the attaches exercise the orchestrator-
    provisioned path), publishes a mid-run config change to exercise the
    publish→all-applied convergence tracker, and returns the orchestrator's
    health report plus every handle a caller could want to drill into —
    including the tracer, so attach-p99 exemplar trace ids can be resolved
    back to recorded spans.

    Built by hand, not by :func:`repro.deploy.build`, whose AGWs
    checkpoint: each checkpoint opens a root span, which would renumber
    the exemplar trace ids the report prints.
    """
    from ..core.agw import AccessGateway, AgwConfig, SubscriberProfile
    from ..deploy import subscriber_keys
    from ..lte import Enodeb, Ue, make_imsi
    from ..net import Network, backhaul
    from ..sim import Monitor, RngRegistry, Simulator

    sim = Simulator()
    rng = RngRegistry(seed)
    network = Network(sim, rng)
    monitor = Monitor()
    tracer = Tracer(sim, rng, sample_rate=sample_rate)
    recorder = FlightRecorder(sim)
    from ..core.orchestrator import Orchestrator
    orc = Orchestrator(sim, network, "orc", monitor=monitor,
                       num_shards=num_shards)
    config = AgwConfig(checkin_interval=checkin_interval)
    agws: List[Any] = []
    ues: List[Any] = []
    index = 0
    for i in range(num_agws):
        node = f"agw-{i}"
        target = orc.shard_node_for(node)
        network.connect(node, target, backhaul.by_name("fiber"))
        agw = AccessGateway(sim, network, node, config=config,
                            orchestrator_node=target, monitor=monitor,
                            rng=rng)
        enb_node = f"enb-{i}"
        network.connect(enb_node, node, backhaul.lan(f"lan-{i}"))
        enb = Enodeb(sim, network, enb_node, node)
        for _ in range(ues_per_agw):
            index += 1
            imsi = make_imsi(index)
            k, opc = subscriber_keys(index)
            orc.add_subscriber(SubscriberProfile(imsi=imsi, k=k, opc=opc))
            ues.append(Ue(sim, imsi, k, opc, enb))
        agw.start()
        enb.s1_setup()
        agws.append(agw)
    # Attaches start after the first check-in round has synced config and
    # are spread across the run, round-robin over the gateways, so at the
    # end every AGW still holds latency samples (and their exemplars)
    # inside the health engine's sliding window.
    start = checkin_interval + 1.0
    step = max(0.5, (duration - start - 5.0) / max(1, len(ues)))
    order = [ues[a * ues_per_agw + j]
             for j in range(ues_per_agw) for a in range(num_agws)]
    for n, ue in enumerate(order):
        sim.call_later(start + step * n, ue.attach)

    def mid_run_publish() -> None:
        extra = num_agws * ues_per_agw + 1
        k, opc = subscriber_keys(extra)
        orc.add_subscriber(SubscriberProfile(imsi=make_imsi(extra),
                                             k=k, opc=opc))

    sim.call_later(duration / 2, mid_run_publish)
    sim.run(until=duration)
    return HealthFleetRun(sim=sim, network=network, orc=orc, agws=agws,
                          ues=ues, tracer=tracer, recorder=recorder,
                          monitor=monitor, report=orc.health_report())
