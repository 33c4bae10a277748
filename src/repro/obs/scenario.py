"""Traced demo scenario: an attach storm with the tracer on.

Used by ``python -m repro.obs`` and the CI smoke step: stands up an
emulated site, traces an attach storm (plus an idle/paging round trip and
a detach wave, so the exported trace shows more than one procedure type,
and an AGW crash and recovery, the post-mortem the flight recorder is
for), and returns the tracer for analysis/export.
"""

from __future__ import annotations

from typing import Any, Dict, List

from ..core.agw import AgwConfig, SubscriberProfile
from ..deploy import Deployment, build, subscriber_keys
from ..lte import make_imsi
from ..record import record
from ..workloads.attach_storm import AttachStorm
from .flightrec import FlightRecorder
from .tracing import Tracer


@record
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


@record
class HealthFleetRun:
    """Handles from :func:`run_health_fleet` for CLI/test inspection."""

    site: Deployment
    tracer: Tracer
    recorder: FlightRecorder
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
    """
    site = build(num_ues=ues_per_agw, num_agws=num_agws,
                 num_shards=num_shards, backhaul="fiber", seed=seed,
                 config=AgwConfig(checkin_interval=checkin_interval))
    sim, orc = site.sim, site.orc
    tracer = Tracer(sim, site.rng, sample_rate=sample_rate)
    recorder = FlightRecorder(sim)
    # Attaches start after the first check-in round has synced config and
    # are spread across the run, round-robin over the gateways, so at the
    # end every AGW still holds latency samples (and their exemplars)
    # inside the health engine's sliding window.  The times are absolute,
    # counted from 0 though ``build`` returns one second in.
    start = checkin_interval + 1.0
    step = max(0.5, (duration - start - 5.0) / max(1, len(site.ues)))
    order = [site.ues[a * ues_per_agw + j]
             for j in range(ues_per_agw) for a in range(num_agws)]
    for n, ue in enumerate(order):
        sim.call_later(start + step * n - sim.now, ue.attach)

    def mid_run_publish() -> None:
        extra = num_agws * ues_per_agw + 1
        k, opc = subscriber_keys(extra)
        orc.add_subscriber(SubscriberProfile(imsi=make_imsi(extra),
                                             k=k, opc=opc))

    sim.call_later(duration / 2 - sim.now, mid_run_publish)
    sim.run(until=duration)
    return HealthFleetRun(site=site, tracer=tracer, recorder=recorder,
                          report=orc.health_report())
