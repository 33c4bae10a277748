"""Reference health engine: the retired read-through-the-merged-views one.

``repro.obs.health.HealthEngine`` used to score every gateway through the
orchestrator's ``MergedGatewayView`` and ``MergedMetricsView``: each
per-gateway ``query``/``latest`` went to all N shards, the merged query
stably sorted the concatenation by capture time, and the rollup key came
from a ring lookup per gateway.  The product now scores each gateway on
its owner shard's own stores.  The class is kept here verbatim (but for
its name, an absolute import and the attach baseline, which both engines
take from ``repro.sim.monitor.counter_rise``), out of the product, as
the model ``test_health_oracle.py`` compares every report against: under
the ownership precondition both must be equal, key order and floats
included.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.health import (ATTACH_LATENCY_METRIC, ATTACH_P99_SLO_S,
                               CONVERGENCE_SLO_S, CPU_UTIL_CEILING, WEIGHTS,
                               WINDOW)
from repro.sim.monitor import counter_rise, percentile


def _clamp(value: float) -> float:
    return 0.0 if value < 0.0 else (1.0 if value > 1.0 else value)


class ReferenceHealthEngine:
    """Computes health reports from an orchestrator's stores."""

    def __init__(self, orchestrator):
        from repro.core.orchestrator.orchestrator import OFFLINE_THRESHOLD
        self.orc = orchestrator
        self.offline_after = OFFLINE_THRESHOLD

    # -- per-AGW ---------------------------------------------------------------

    def agw_health(self, gateway_id: str) -> Optional[Dict[str, Any]]:
        """Subscores, blended score, and supporting numbers for one AGW."""
        state = self.orc.statesync.gateway(gateway_id)
        if state is None:
            return None
        now = self.orc.sim.now
        t0 = now - WINDOW
        labels = {"gateway_id": gateway_id}
        metricsd = self.orc.metricsd
        subscores: Dict[str, float] = {}
        detail: Dict[str, Any] = {}

        # Attach success: the cumulative counters' rise over the window.
        d_acc = counter_rise(metricsd.query("attach_accepted", labels),
                             t0) or 0.0
        d_req = counter_rise(metricsd.query("attach_requests", labels),
                             t0) or 0.0
        if d_req > 0:
            rate = _clamp(d_acc / d_req)
            subscores["attach"] = rate
            detail["attach_success_rate"] = rate
        else:
            subscores["attach"] = 1.0  # no attempts: nothing failing

        # Attach latency p99 + exemplar.
        lat = [s for s in metricsd.query(ATTACH_LATENCY_METRIC, labels)
               if s.time >= t0]
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
        cpu = metricsd.latest("cpu_util", labels)
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
            "shard": self.orc.shard_for(gateway_id).shard_id,
        }

    @staticmethod
    def _exemplar_at_or_above(samples: List[Any], threshold: float):
        """The trace-linked sample closest above the threshold (falling
        back to the largest linked one), or None if no sample in the
        window carries a trace id."""
        best = None
        linked = [s for s in samples if s.trace_id is not None]
        if not linked:
            return None
        at_or_above = [s for s in linked if s.value >= threshold]
        if at_or_above:
            best = min(at_or_above, key=lambda s: s.value)
        else:
            best = max(linked, key=lambda s: s.value)
        return best

    # -- rollups ---------------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Per-AGW, per-shard, and fleet health at the current sim time."""
        agws: Dict[str, Dict[str, Any]] = {}
        for state in self.orc.statesync.gateways():
            health = self.agw_health(state.gateway_id)
            if health is not None:
                agws[state.gateway_id] = health
        shards: Dict[str, Dict[str, Any]] = {}
        for health in agws.values():
            row = shards.setdefault(health["shard"], {
                "agws": 0, "score_sum": 0.0, "min_score": 100.0,
                "worst_agw": None})
            row["agws"] += 1
            row["score_sum"] += health["score"]
            if health["score"] <= row["min_score"]:
                row["min_score"] = health["score"]
                row["worst_agw"] = health["gateway_id"]
        for row in shards.values():
            row["mean_score"] = row["score_sum"] / row["agws"]
            del row["score_sum"]
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
