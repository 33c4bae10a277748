"""Health/SLO engine: windowed scalar health per AGW, shard, and fleet.

The paper's operational claim is that the orchestrator makes a failing
access network *visible* to a small operator — not as a wall of raw
series, but as "this gateway is unhealthy, and here is why".  This module
turns metricsd state into that answer: each AGW gets subscores in
``[0, 1]`` over a sliding window —

- **attach**: accepted/requested ratio from the cumulative attach
  counters' rise over the window, measured from the newest sample at or
  before its start (else the oldest inside it);
- **latency**: attach p99 against the SLO, with a metric *exemplar* — the
  trace id of a recorded sample at/above the p99 — so the operator can
  jump straight from the number to the trace that was that slow;
- **cpu**: headroom against a utilization ceiling;
- **freshness**: recency of the last check-in against the offline
  threshold;
- **convergence**: how long the gateway's applied config has lagged the
  newest publish (the desired-state model's own SLO).

The weighted blend scales to a 0–100 score; shards roll up their members
and the fleet rolls up the shards.  Everything reads orchestrator-side
state only (metricsd, statesync, the convergence tracker) — the engine
never talks to gateways, exactly like real Magma's health dashboards.

This module is a *consumer* of the orchestrator (duck-typed; only the
offline threshold is imported, when an engine is built), so the
orchestrator can build one without a load-time dependency cycle.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Dict, List, Optional

from ..sim.monitor import counter_rise, percentile

ATTACH_LATENCY_METRIC = "attach_latency_s"

# Targets and weights; they follow the paper's workloads.
WINDOW = 60.0               # seconds of history per evaluation
ATTACH_P99_SLO_S = 1.0      # NAS attach should finish within this
CONVERGENCE_SLO_S = 120.0   # publish -> all-applied budget
CPU_UTIL_CEILING = 0.9      # headroom exhausted at this load
WEIGHTS = {"attach": 0.30, "latency": 0.25, "cpu": 0.15,
           "freshness": 0.15, "convergence": 0.15}

_BY_TIME = attrgetter("time")
_BY_VALUE = attrgetter("value")


def _clamp(value: float) -> float:
    return 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)


class HealthEngine:
    """Computes health reports from an orchestrator's stores.

    Every gateway is scored on its owner shard: its registration from
    that shard's ``statesync`` and its series from that shard's
    ``metricsd``, one read per metric.  This rests on sharding's
    ownership precondition - a gateway checks in to, registers on and
    ships ``gateway_id``-labelled samples to its owner shard only - so
    the owner's store holds every sample the merged view would return.
    Samples are still read in capture-time order (stably sorted, as the
    merged view returns them): back-filled rows can arrive out of order.
    """

    def __init__(self, orchestrator):
        from ..core.orchestrator.orchestrator import OFFLINE_THRESHOLD
        self.orc = orchestrator
        self.offline_after = OFFLINE_THRESHOLD

    # -- per-AGW ---------------------------------------------------------------

    def agw_health(self, gateway_id: str) -> Optional[Dict[str, Any]]:
        """Subscores, blended score, and supporting numbers for one AGW."""
        shard = self.orc.shard_for(gateway_id)
        state = shard.statesync.gateway(gateway_id)
        if state is None:
            return None
        return self._score(state, shard)

    def _score(self, state, shard) -> Dict[str, Any]:
        """Score ``state`` against its owner ``shard``'s metrics store."""
        gateway_id = state.gateway_id
        now = self.orc.sim.now
        t0 = now - WINDOW
        labels = {"gateway_id": gateway_id}
        query = shard.metricsd.query
        subscores: Dict[str, float] = {}
        detail: Dict[str, Any] = {}

        # Attach success: the cumulative counters' rise over the window.
        d_acc = counter_rise(query("attach_accepted", labels), t0) or 0.0
        d_req = counter_rise(query("attach_requests", labels), t0) or 0.0
        if d_req > 0:
            rate = _clamp(d_acc / d_req)
            subscores["attach"] = rate
            detail["attach_success_rate"] = rate
        else:
            subscores["attach"] = 1.0  # no attempts: nothing failing

        # Attach latency p99 + exemplar.
        lat = sorted([s for s in query(ATTACH_LATENCY_METRIC, labels)
                      if s.time >= t0], key=_BY_TIME)
        if lat:
            p99 = percentile([s.value for s in lat], 99.0)
            subscores["latency"] = _clamp(ATTACH_P99_SLO_S / p99) \
                if p99 > 0 else 1.0
            detail["attach_p99_s"] = p99
            exemplar = self._exemplar_at_or_above(lat, p99)
            if exemplar is not None:
                detail["attach_p99_exemplar"] = {
                    "trace_id": exemplar.trace_id,
                    "value_s": exemplar.value,
                    "time": exemplar.time,
                }
        else:
            subscores["latency"] = 1.0

        # CPU headroom from the freshest utilization sample.
        cpu = shard.metricsd.latest("cpu_util", labels)
        if cpu is not None:
            subscores["cpu"] = _clamp(
                1.0 - cpu.value / CPU_UTIL_CEILING)
            detail["cpu_util"] = cpu.value
        else:
            subscores["cpu"] = 1.0

        # Check-in freshness against the offline threshold.
        age = now - state.last_checkin
        subscores["freshness"] = _clamp(1.0 - age / self.offline_after)
        detail["checkin_age_s"] = age

        # Convergence: how stale is this gateway's applied config?
        published = self.orc.convergence.oldest_unapplied_publish(
            state.network_id, state.config_version)
        if published is None:
            subscores["convergence"] = 1.0
            detail["config_lag_s"] = 0.0
        else:
            lag = now - published
            subscores["convergence"] = _clamp(
                1.0 - lag / CONVERGENCE_SLO_S)
            detail["config_lag_s"] = lag

        total_weight = sum(WEIGHTS.values())
        score = 100.0 * sum(WEIGHTS[k] * subscores[k]
                            for k in WEIGHTS) / total_weight
        return {
            "gateway_id": gateway_id,
            "score": score,
            "subscores": subscores,
            "detail": detail,
            "shard": shard.shard_id,
        }

    @staticmethod
    def _exemplar_at_or_above(samples: List[Any], threshold: float):
        """The trace-linked sample closest above the threshold (falling
        back to the largest linked one), or None if no sample in the
        window carries a trace id.  Ties go to the earliest sample."""
        linked = [s for s in samples if s.trace_id is not None]
        if not linked:
            return None
        at_or_above = [s for s in linked if s.value >= threshold]
        if at_or_above:
            return min(at_or_above, key=_BY_VALUE)
        return max(linked, key=_BY_VALUE)

    # -- rollups ---------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Per-AGW, per-shard, and fleet health at the current sim time.

        Walks the shards in order, each over its own registry, so AGWs
        come out grouped by shard and a shard with no gateways has no row.
        """
        agws: Dict[str, Dict[str, Any]] = {}
        shards: Dict[str, Dict[str, Any]] = {}
        for shard in self.orc.shards:
            count, score_sum, min_score, worst = 0, 0.0, 100.0, None
            for state in shard.statesync.gateways():
                health = self._score(state, shard)
                agws[state.gateway_id] = health
                score = health["score"]
                count += 1
                score_sum += score
                if score <= min_score:
                    min_score, worst = score, state.gateway_id
            if count:
                shards[shard.shard_id] = {
                    "agws": count, "min_score": min_score,
                    "worst_agw": worst, "mean_score": score_sum / count}
        convergence = self.orc.convergence
        fleet = {
            "time": self.orc.sim.now,
            "agws": len(agws),
            "mean_score": (sum(h["score"] for h in agws.values())
                           / len(agws)) if agws else 100.0,
            "min_score": min((h["score"] for h in agws.values()),
                             default=100.0),
            "convergence_lag_s": dict(convergence.last_lag),
            "convergence_pending": {
                network_id: convergence.oldest_pending_age(network_id)
                for network_id in convergence.pending_networks()},
        }
        return {"agws": agws, "shards": shards, "fleet": fleet}
