"""The metric catalogue: names, units, directions, bounds, interactions.

``BENCHMARK.json`` at the repo root lists exactly these names
(``test_e2e_bench.py`` holds the two equal); it has no room for the
definitions and predictions, which live here.  The ``moves`` text of a
per-layer metric is the prediction written down before measuring: which
end-to-end metric it should move, on which workload, and where it must
*not* show (README.md, "How the metrics interact").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence

from layertrace import LAYERS


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median it may worsen by.  Each is three times
    #: the worst inter-quartile spread seen over ten seeds (README.md,
    #: "Measured noise"), rounded up: host seconds are noisy here even
    #: normalised, the counted proxy is not.
    bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("wall_s", "s", "lower", 0.25,
             "perf_counter over the timed section only, normalised by the "
             "interleaved speed reference; the work is fixed, so this is "
             "throughput (median of the run's untraced reps)"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "imports + build + warm-up up to the start of the timed "
             "section, normalised likewise (median of the reps; every rep "
             "sets up afresh)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.05,
             "ru_maxrss of the rep's own subprocess (median of the reps)"),
    EndToEnd("host_calls", "calls", "lower", 0.06,
             "Python + C function calls executed inside the timed section, "
             "counted under the C profile hook in one extra rep; repeats "
             "exactly for a seed - the deterministic proxy for host CPU "
             "work on a noisy box; a count, never a speed-up (the bound "
             "covers how far the count moves with the seed)"),
]

CPU_MODEL = ("wall_s, host_calls on fleet_e2e (the 50 ms CPU-quantum poll "
             "and its monitor writes are the largest share of the run); "
             "not on signalling_multirat (a few %), sync_* (no kernel)")
KERNEL_NET = ("wall_s, host_calls on signalling_multirat; second-order on "
              "fleet_e2e; not on sync_*")
AGW_SERVICES = ("wall_s, host_calls on signalling_multirat, where "
                "attach_p50/p99_sim_ms must stay exact under a refactor; "
                "on fleet_e2e only via the sampled UEs; not on sync_*")
GATEWAY_SYNC = ("wall_s, host_calls on fleet_e2e (check-in, checkpoint and "
                "health loops of every AGW); not on sync_* (the benchmark "
                "plays the gateway there)")
SYNC_READ = ("wall_s, host_calls, peak_rss_mb on sync_checkin_storm; not on "
             "fleet_e2e (a few %), signalling_multirat (absent); "
             "sync_publish_churn is the guard that must not get worse")
SYNC_WRITE = ("wall_s, host_calls on sync_publish_churn; not on "
              "sync_checkin_storm (three writes in the whole run)")
TELEMETRY = ("wall_s, host_calls on sync_checkin_storm and fleet_e2e (every "
             "check-in carries a metrics bundle); not on "
             "signalling_multirat")
WIRE = ("wire_bytes_per_checkin, converge_lag_max_sim_s on fleet_e2e and "
        "sync_*; not on signalling_multirat")
OBS = ("wall_s, host_calls, peak_rss_mb on fleet_e2e (observability on); "
       "not on signalling_multirat (off: its obs.calls is the "
       "disabled-path cost and should stay near 0)")
FLEET_TICK = ("wall_s, host_calls on fleet_e2e (one batched tick per "
              "sim-second over every AGW); absent elsewhere")
SIM_RESULT = ("a simulated result: bit-identical (see sim_digest) under any "
              "change meant only to speed the simulator")
DRIVER = ("the benchmark's own cost: small and flat; a rise means the "
          "harness, not the program, got slower")
UNUSED = "no workload federates yet: reads 0 until one does"

_LAYER_MOVES = {
    "sim.kernel": KERNEL_NET, "sim.cpu": CPU_MODEL, "sim.monitor": CPU_MODEL,
    "sim.other": KERNEL_NET, "net.rpc": KERNEL_NET, "net.simnet": KERNEL_NET,
    "lte": AGW_SERVICES, "fiveg": AGW_SERVICES, "wifi": AGW_SERVICES,
    "core.agw.frontends": AGW_SERVICES, "core.agw.mme": AGW_SERVICES,
    "core.agw.sessiond": AGW_SERVICES, "core.agw.pipelined": AGW_SERVICES,
    "core.agw.magmad": GATEWAY_SYNC, "dataplane": AGW_SERVICES,
    "core.orchestrator.statesync": SYNC_READ,
    "core.orchestrator.metricsd": TELEMETRY,
    "core.orchestrator.store": SYNC_WRITE,
    "core.sync.digest": SYNC_READ, "core.sync.reconcile": SYNC_READ,
    "core.federation": UNUSED, "workloads": FLEET_TICK, "obs": OBS,
    "bench": DRIVER, "python": DRIVER,
}

_SS = "core.orchestrator.statesync"
_STATE: List[PerLayer] = [
    # Timed from outside on the untraced rep (sync_* only; 0 elsewhere).
    PerLayer(f"{_SS}.checkin_idle_us_p50", "us", "lower", SYNC_READ),
    PerLayer(f"{_SS}.checkin_idle_us_p99", "us", "lower", SYNC_READ),
    PerLayer(f"{_SS}.checkin_walk_us_p50", "us", "lower", SYNC_READ),
    PerLayer(f"{_SS}.checkin_walk_us_p99", "us", "lower", SYNC_READ),
    PerLayer(f"{_SS}.checkin_bootstrap_us_p50", "us", "lower", SYNC_WRITE),
    PerLayer("core.orchestrator.store.publish_us_p50", "us", "lower",
             SYNC_WRITE),
    PerLayer("core.orchestrator.store.publish_us_p99", "us", "lower",
             SYNC_WRITE),
    # Exact counts over the timed section, read from public state.
    PerLayer("sim.kernel.events", "count", "lower", CPU_MODEL),
    PerLayer("sim.cpu.util_samples", "count", "lower", CPU_MODEL),
    PerLayer("sim.monitor.series", "count", "lower", CPU_MODEL),
    PerLayer("core.agw.mme.attach_requests", "count", "higher", AGW_SERVICES),
    PerLayer("core.agw.mme.attach_accepted", "count", "higher", AGW_SERVICES),
    PerLayer("core.agw.mme.attach_rejected", "count", "lower", AGW_SERVICES),
    PerLayer("core.agw.mme.overload_drops", "count", "lower", AGW_SERVICES),
    PerLayer("core.agw.sessiond.sessions_at_end", "count", "higher",
             AGW_SERVICES),
    PerLayer("core.agw.pipelined.rules_at_end", "count", "lower",
             AGW_SERVICES),
    PerLayer("core.agw.magmad.checkins_ok", "count", "higher", GATEWAY_SYNC),
    PerLayer("core.agw.magmad.checkins_failed", "count", "lower",
             GATEWAY_SYNC),
    PerLayer("core.agw.magmad.reconcile_rounds", "count", "lower", WIRE),
    PerLayer("core.agw.magmad.metrics_buffered", "count", "lower", TELEMETRY),
    PerLayer("core.agw.magmad.checkpoints", "count", "lower", GATEWAY_SYNC),
    PerLayer(f"{_SS}.checkins", "count", "higher", SYNC_READ),
    PerLayer(f"{_SS}.config_pushes", "count", "lower", SYNC_WRITE),
    PerLayer(f"{_SS}.digest_syncs", "count", "lower", SYNC_READ),
    PerLayer(f"{_SS}.digest_elisions", "count", "higher", SYNC_READ),
    PerLayer(f"{_SS}.reconcile_requests", "count", "lower", SYNC_READ),
    PerLayer(f"{_SS}.reconcile_upserts", "count", "lower", SYNC_WRITE),
    PerLayer(f"{_SS}.reconcile_tombstones", "count", "lower", SYNC_WRITE),
    PerLayer(f"{_SS}.tx_bytes", "bytes", "lower", WIRE),
    PerLayer(f"{_SS}.rx_bytes", "bytes", "lower", WIRE),
    PerLayer(f"{_SS}.bundle_rebuilds", "count", "lower", SYNC_WRITE),
    PerLayer("core.orchestrator.metricsd.series", "count", "lower",
             TELEMETRY),
    PerLayer("core.orchestrator.store.version_at_end", "count", "higher",
             SYNC_WRITE),
    PerLayer("core.sync.reconcile.rounds_per_walk", "ratio", "lower", WIRE),
    PerLayer("core.sync.reconcile.converged_share", "ratio", "higher",
             SYNC_READ),
    PerLayer("workloads.fleet.attach_accepted", "count", "higher",
             FLEET_TICK),
    PerLayer("workloads.fleet.attach_rejected", "count", "lower", FLEET_TICK),
    PerLayer("workloads.fleet.attached_at_end", "count", "higher",
             FLEET_TICK),
    PerLayer("obs.tracing.spans", "count", "lower", OBS),
    PerLayer("obs.flightrec.records", "count", "lower", OBS),
    # Simulated results (0 where the workload has none).
    PerLayer("attach_p50_sim_ms", "sim_ms", "lower", SIM_RESULT),
    PerLayer("attach_p99_sim_ms", "sim_ms", "lower", SIM_RESULT),
    PerLayer("converge_lag_max_sim_s", "sim_s", "lower", SIM_RESULT),
    PerLayer("wire_bytes_per_checkin", "bytes", "lower", WIRE),
    PerLayer("bench.attach_samples", "count", "higher", SIM_RESULT),
    PerLayer("bench.fault_refused_ops", "count", "lower",
             "sampled attaches refused by the AGW the benchmark crashed "
             "(fleet_e2e only); kept apart from failed ops"),
]

_PROFILE: List[PerLayer] = [
    PerLayer(f"{layer}.{suffix}", unit, "lower", _LAYER_MOVES[layer])
    for layer in LAYERS
    for suffix, unit in (("self_s", "s"), ("calls", "calls"))
] + [
    PerLayer("bench.trace_coverage", "share", "higher",
             "sum of layer self_s / traced wall; gated at >= 0.95"),
    PerLayer("bench.trace_overhead_x", "x", "lower",
             "traced wall / untraced wall_s of the same run"),
]

PER_LAYER: List[PerLayer] = _PROFILE + _STATE

#: Layer self-time coverage below this fails the traced pass.
MIN_TRACE_COVERAGE = 0.95
#: Attach samples needed for ten to lie beyond p99.
MIN_ATTACH_SAMPLES = 1000


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def state_metrics(counts: Dict[str, float],
                  results: Dict[str, Any]) -> Dict[str, float]:
    """Every ``_STATE`` metric of one rep (0 where the workload has none)."""
    values: Dict[str, float] = {}
    values.update(counts)
    values.update(results["gauges"])
    timings = results.get("timings_ns", {})
    for kind, name in (("idle", f"{_SS}.checkin_idle_us"),
                       ("walk", f"{_SS}.checkin_walk_us"),
                       ("bootstrap", f"{_SS}.checkin_bootstrap_us"),
                       ("publish", "core.orchestrator.store.publish_us")):
        micros = [ns / 1000.0 for ns in timings.get(kind, ())]
        values[f"{name}_p50"] = percentile(micros, 50.0)
        values[f"{name}_p99"] = percentile(micros, 99.0)
    walks = results.get("walks", 0)
    values["core.sync.reconcile.rounds_per_walk"] = \
        results["walk_rounds"] / walks if walks else 0.0
    values["core.sync.reconcile.converged_share"] = \
        results.get("walks_converged", 0) / walks if walks else 0.0
    latencies = results.get("attach_latencies_s", ())
    values["attach_p50_sim_ms"] = percentile(latencies, 50.0) * 1000.0
    values["attach_p99_sim_ms"] = percentile(latencies, 99.0) * 1000.0
    values["bench.attach_samples"] = len(latencies)
    values["converge_lag_max_sim_s"] = \
        max(results.get("converge_lags_s", ()), default=0.0)
    checkins = counts.get(f"{_SS}.checkins", 0)
    values["wire_bytes_per_checkin"] = (
        (counts[f"{_SS}.tx_bytes"] + counts[f"{_SS}.rx_bytes"]) / checkins
        if checkins else 0.0)
    values["bench.fault_refused_ops"] = results.get("fault_refused_ops", 0)
    return {metric.name: values.get(metric.name, 0) for metric in _STATE}


def profile_metrics(layers: Dict[str, Dict[str, float]], traced_wall: float,
                    untraced_wall: float) -> Dict[str, float]:
    """Every ``_PROFILE`` metric from one folded traced pass."""
    values: Dict[str, float] = {}
    for layer in LAYERS:
        row = layers.get(layer, {"self_s": 0.0, "calls": 0})
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    values["bench.trace_coverage"] = \
        sum(row["self_s"] for row in layers.values()) / traced_wall
    values["bench.trace_overhead_x"] = traced_wall / untraced_wall
    return values
