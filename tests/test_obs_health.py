"""Health/SLO engine: subscores, convergence tracking, exemplar plumbing.

Covers the windowed per-AGW subscores against a hand-built orchestrator
stand-in, the ConvergenceTracker's publish→all-applied floor semantics,
the exemplar pipeline end to end (Monitor → magmad back-fill → metricsd
→ health p99 → recorded trace), and that Series decimation keeps every
retained sample's trace id.
"""

from types import SimpleNamespace

import pytest

from repro.core.orchestrator.config_store import ConfigStore
from repro.core.orchestrator.metricsd import Metricsd
from repro.core.orchestrator.orchestrator import OFFLINE_THRESHOLD
from repro.core.orchestrator.statesync import (
    ConvergenceTracker,
    GatewayState,
    StateSync,
)
from repro.obs.health import HealthEngine
from repro.sim import Monitor, Simulator
from repro.sim.monitor import Series


# -- orchestrator stand-in ---------------------------------------------------------


class FakeStateSync:
    def __init__(self, states):
        self._states = {s.gateway_id: s for s in states}

    def gateway(self, gateway_id):
        return self._states.get(gateway_id)

    def gateways(self):
        return list(self._states.values())


def fake_orc(sim, states, metricsd=None):
    """One shard owning every gateway; ``statesync``/``metricsd`` are that
    shard's stores, so tests write through either handle."""
    shard = SimpleNamespace(shard_id="orc-s0",
                            statesync=FakeStateSync(states),
                            metricsd=metricsd or Metricsd())
    return SimpleNamespace(
        sim=sim,
        shards=[shard],
        statesync=shard.statesync,
        metricsd=shard.metricsd,
        convergence=ConvergenceTracker(sim),
        shard_for=lambda gateway_id: shard,
    )


def gw(gateway_id, sim, version=1):
    return GatewayState(gateway_id=gateway_id, first_seen=0.0,
                        last_checkin=sim.now, config_version=version)


# -- subscores ---------------------------------------------------------------------


def test_healthy_gateway_scores_100():
    sim = Simulator()
    orc = fake_orc(sim, [gw("agw-0", sim)])
    engine = HealthEngine(orc)
    health = engine.agw_health("agw-0")
    assert health["score"] == pytest.approx(100.0)
    assert all(v == 1.0 for v in health["subscores"].values())
    assert engine.agw_health("nope") is None


def test_attach_subscore_uses_windowed_counter_deltas():
    sim = Simulator()
    orc = fake_orc(sim, [gw("agw-0", sim)])
    labels = {"gateway_id": "agw-0"}
    # Old window: 50 requests, none accepted.  Recent: 10 req, 8 accepted.
    orc.metricsd.ingest("attach_requests", 50.0, 1.0, labels)
    orc.metricsd.ingest("attach_accepted", 0.0, 1.0, labels)
    sim.now = 200.0
    for t, req, acc in ((150.0, 50.0, 0.0), (190.0, 60.0, 8.0)):
        orc.metricsd.ingest("attach_requests", req, t, labels)
        orc.metricsd.ingest("attach_accepted", acc, t, labels)
    orc.statesync.gateway("agw-0").last_checkin = 200.0
    engine = HealthEngine(orc)
    health = engine.agw_health("agw-0")
    assert health["subscores"]["attach"] == pytest.approx(0.8)
    assert health["detail"]["attach_success_rate"] == pytest.approx(0.8)


def test_attach_subscore_counts_a_rejection_across_the_window_edge():
    """At the default 60 s check-in a window holds about one sample, so the
    rise is measured from the sample before the window: an attach rejected
    at t=61.5 ships with the check-in at t~120.02 and scores 0 until the
    window's start passes that sample (a window-only delta never saw it)."""
    from repro.deploy import build
    from repro.lte import Ue, make_imsi
    d = build(num_ues=1, backhaul="fiber")
    sim, orc = d.sim, d.orc
    gateway_id = d.agw.context.node
    sim.run(until=61.5)
    ghost = Ue(sim, make_imsi(99), b"\x00" * 16, b"\x00" * 16, d.enbs[0])
    assert not sim.run_until_triggered(ghost.attach(),
                                       limit=sim.now + 60.0).success
    scores = {}
    for t in range(63, 401):
        sim.run(until=float(t))
        scores[t] = orc.health.agw_health(gateway_id)["subscores"]["attach"]
    assert [t for t, score in scores.items() if score < 1.0] == \
        list(range(121, 181))
    assert scores[121] == scores[180] == 0.0


def test_latency_subscore_and_p99_exemplar():
    sim = Simulator()
    orc = fake_orc(sim, [gw("agw-0", sim)])
    labels = {"gateway_id": "agw-0"}
    sim.now = 50.0
    orc.statesync.gateway("agw-0").last_checkin = 50.0
    for i in range(20):
        orc.metricsd.ingest("attach_latency_s", 0.5, 10.0 + i * 0.1, labels)
    for i, slow in enumerate((3.0, 3.5)):
        orc.metricsd.ingest("attach_latency_s", slow, 20.0 + i, labels)
    # The slowest sample carries the trace id the operator should land on.
    orc.metricsd.ingest("attach_latency_s", 4.0, 45.0, labels,
                        trace_id=0xabc)
    engine = HealthEngine(orc)
    health = engine.agw_health("agw-0")
    assert health["detail"]["attach_p99_s"] > 1.0
    assert health["subscores"]["latency"] < 1.0
    exemplar = health["detail"]["attach_p99_exemplar"]
    assert exemplar["trace_id"] == 0xabc
    assert exemplar["value_s"] == pytest.approx(4.0)


def test_cpu_and_freshness_subscores_decay():
    sim = Simulator()
    state = gw("agw-0", sim)
    orc = fake_orc(sim, [state])
    orc.metricsd.ingest("cpu_util", 0.45, 0.0, {"gateway_id": "agw-0"})
    sim.now = OFFLINE_THRESHOLD / 2  # half the threshold since check-in
    engine = HealthEngine(orc)
    health = engine.agw_health("agw-0")
    assert health["subscores"]["cpu"] == pytest.approx(0.5)
    assert health["subscores"]["freshness"] == pytest.approx(0.5)
    assert health["score"] < 100.0


def test_convergence_subscore_tracks_unapplied_publish():
    sim = Simulator()
    state = gw("agw-0", sim, version=3)
    orc = fake_orc(sim, [state])
    orc.convergence.note_publish("default", 4)
    sim.now = 60.0
    state.last_checkin = 60.0
    engine = HealthEngine(orc)
    health = engine.agw_health("agw-0")
    assert health["subscores"]["convergence"] == pytest.approx(0.5)
    assert health["detail"]["config_lag_s"] == pytest.approx(60.0)
    # Once applied, the subscore recovers.
    orc.convergence.note_applied("default", "agw-0", 4)
    state.config_version = 4
    assert engine.agw_health("agw-0")["subscores"]["convergence"] == 1.0


def test_report_rolls_up_shards_and_fleet():
    sim = Simulator()
    orc = fake_orc(sim, [gw("agw-0", sim), gw("agw-1", sim)])
    engine = HealthEngine(orc)
    report = engine.report()
    assert set(report["agws"]) == {"agw-0", "agw-1"}
    (shard,) = report["shards"].values()  # one shard, one bucket
    assert shard["agws"] == 2
    assert report["fleet"]["mean_score"] == pytest.approx(100.0)


# -- convergence tracker -----------------------------------------------------------


def test_convergence_floor_waits_for_slowest_gateway():
    sim = Simulator()
    monitor = Monitor()
    metricsd = Metricsd()
    tracker = ConvergenceTracker(sim, monitor=monitor)
    tracker.metricsd = metricsd
    tracker.note_applied("net", "a", 1)
    tracker.note_applied("net", "b", 1)
    tracker.note_publish("net", 2)
    sim.now = 10.0
    tracker.note_applied("net", "a", 2)
    assert tracker.pending_count("net") == 1  # b still behind
    assert tracker.oldest_pending_age("net") == pytest.approx(10.0)
    sim.now = 14.0
    tracker.note_applied("net", "b", 2)
    assert tracker.pending_count("net") == 0
    assert tracker.last_lag["net"] == pytest.approx(14.0)
    assert tracker.stats == {"publishes": 1, "converged": 1}
    (sample,) = metricsd.query("sync.convergence.lag_s",
                               {"network_id": "net"})
    assert sample.value == pytest.approx(14.0)
    assert monitor.series("sync.convergence.lag_s").last() == \
        pytest.approx(14.0)


def test_convergence_multiple_publishes_converge_in_order():
    sim = Simulator()
    tracker = ConvergenceTracker(sim)
    tracker.note_applied("net", "a", 1)
    tracker.note_publish("net", 2)
    sim.now = 5.0
    tracker.note_publish("net", 3)
    assert tracker.pending_networks() == ["net"]
    assert tracker.oldest_unapplied_publish("net", 1) == pytest.approx(0.0)
    assert tracker.oldest_unapplied_publish("net", 2) == pytest.approx(5.0)
    sim.now = 8.0
    tracker.note_applied("net", "a", 3)  # jumps over v2: both converge
    assert tracker.pending_count("net") == 0
    assert tracker.stats["converged"] == 2
    assert tracker.oldest_unapplied_publish("net", 3) is None


def test_convergence_steady_state_checkins_are_cheap_noops():
    sim = Simulator()
    tracker = ConvergenceTracker(sim)
    tracker.note_applied("net", "a", 1)
    tracker.note_publish("net", 2)
    tracker.note_applied("net", "a", 1)  # unchanged version: early return
    assert tracker.pending_count("net") == 1


def test_rehomed_gateway_stops_holding_its_old_networks_floor():
    """A gateway that checks in under another network no longer counts
    toward its old network's floor: once the gateways still there apply
    a publish, it converges (it used to stay pending forever)."""
    sim = Simulator()
    store = ConfigStore()
    tracker = ConvergenceTracker(sim)
    sync = StateSync(sim, store, convergence=tracker)

    def checkin(gateway_id, version, network_id="default"):
        sync.handle_checkin({"gateway_id": gateway_id,
                             "config_version": version,
                             "network_id": network_id})

    checkin("a", 0)
    checkin("b", 0)
    version = store.put("subscribers", "imsi1", {"k": 1})
    tracker.note_publish("default", version)
    sim.now = 5.0
    checkin("b", 0, network_id="tenant")
    assert tracker.pending_count("default") == 1     # a still behind
    sim.now = 9.0
    checkin("a", version)
    assert sync.stale_gateways() == []
    assert tracker.pending_count("default") == 0
    assert tracker.stats["converged"] == 1
    assert tracker.last_lag["default"] == pytest.approx(9.0)


def test_last_gateway_leaving_a_network_leaves_its_publish_pending():
    sim = Simulator()
    tracker = ConvergenceTracker(sim)
    tracker.note_applied("net", "a", 1)
    tracker.note_publish("net", 2)
    tracker.note_left("net", "a")
    tracker.note_left("net", "never-seen")
    assert tracker.pending_count("net") == 1
    assert tracker.stats["converged"] == 0


# -- exemplars ---------------------------------------------------------------------


def test_series_decimation_never_drops_all_exemplars():
    series = Series("attach.latency", max_samples=16)
    for i in range(10_000):
        series.record(float(i), float(i % 7), trace_id=i)
    assert series.count == 10_000
    assert series.retained <= 16
    # Every retained row still carries its own sample's trace id.
    rows = series.recent_samples(-1.0)
    assert rows and all(tid == int(t) for t, _, tid in rows)


def test_exemplar_roundtrip_monitor_to_health_p99():
    """Monitor → magmad back-fill shape → metricsd → health exemplar."""
    sim = Simulator()
    monitor = Monitor()
    series = monitor.bounded_series("attach.latency.agw-0", 4096)
    for i in range(50):
        series.record(1.0 + i * 0.5, 0.3, trace_id=1000 + i)
    series.record(30.0, 2.5, trace_id=0xdead)
    # magmad's _collect_latency ships (t, v, trace_id) rows exclusive of
    # the previous high-water mark; replay its ingest into metricsd.
    rows = series.recent_samples(-1.0)
    orc = fake_orc(sim, [gw("agw-0", sim)])
    for t, v, tid in rows:
        orc.metricsd.ingest("attach_latency_s", v, t,
                            {"gateway_id": "agw-0"}, trace_id=tid)
    sim.now = 40.0
    orc.statesync.gateway("agw-0").last_checkin = 40.0
    engine = HealthEngine(orc)
    health = engine.agw_health("agw-0")
    assert health["detail"]["attach_p99_exemplar"]["trace_id"] == 0xdead


def test_health_fleet_scenario_end_to_end():
    """The CLI's scenario, small: real AGWs, sharded orchestrator, and
    p99 exemplars that resolve to traces the run actually recorded."""
    from repro.obs.scenario import run_health_fleet

    run = run_health_fleet(num_agws=4, num_shards=2, ues_per_agw=2,
                           duration=50.0, seed=5)
    report = run.report
    assert report["fleet"]["agws"] == 4
    assert len(report["shards"]) == 2
    assert all(h["score"] > 0.0 for h in report["agws"].values())
    trace_ids = {span.trace_id for span in run.tracer.spans}
    exemplars = [h["detail"]["attach_p99_exemplar"]
                 for h in report["agws"].values()
                 if "attach_p99_exemplar" in h["detail"]]
    assert exemplars, "no AGW produced an exemplar-linked p99"
    assert all(e["trace_id"] in trace_ids for e in exemplars)
    # The mid-run publish converged and was measured.
    assert "default" in report["fleet"]["convergence_lag_s"]
    assert report["fleet"]["convergence_lag_s"]["default"] > 0.0


def test_5g_only_agw_attach_p99_exemplar_resolves():
    """5G registrations record the same attach latency, with exemplars,
    as LTE attaches: a gateway serving only 5G gets an attach p99 whose
    exemplar resolves to a recorded registration trace."""
    from repro.core.agw import AgwConfig
    from repro.deploy import build
    from repro.obs import Tracer

    d = build(num_enbs=0, num_ues=4, rats=("5g",), backhaul="fiber", seed=3,
              config=AgwConfig(checkin_interval=5.0))
    tracer = Tracer(d.sim, d.rng)
    for n, ue in enumerate(d.ues):
        d.sim.schedule_at(7.0 + 3.0 * n, ue.register)
    d.sim.run(until=40.0)
    assert all(ue.state == "registered" for ue in d.ues)
    health = d.orc.health_report()["agws"]["agw-1"]
    exemplar = health["detail"]["attach_p99_exemplar"]
    registrations = {span.trace_id for span in tracer.spans
                     if span.name == "register" and span.parent_id is None}
    assert exemplar["trace_id"] in registrations
