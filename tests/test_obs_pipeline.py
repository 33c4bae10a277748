"""Unified telemetry pipeline: AGW metrics -> magmad check-ins -> metricsd.

Covers the §3.4 best-effort telemetry story: datapath/session gauges land
in the orchestrator labelled by gateway, headless gaps are buffered and
back-filled without duplicates, retention bounds the store, and alert
rules fire off ingested data.
"""

from repro.core.orchestrator import Metricsd, metricsd
from repro.core.orchestrator.alerting import metric_threshold_rule

from test_orchestrator_integration import build_deployment


def attach_one(sim, ues):
    done = ues[0].attach()
    result = sim.run_until_triggered(done, limit=sim.now + 60.0)
    assert result.success


# -- gauges reach the orchestrator ---------------------------------------------


def test_datapath_and_session_gauges_queryable_by_gateway():
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)
    attach_one(sim, ues)
    sim.run(until=sim.now + 10.0)  # one more check-in cycle
    labels = {"gateway_id": "agw-1"}
    for name in ("dp_microflow_size", "dp_microflow_hits", "dp_rules",
                 "dp_subtables", "sessions_active", "attach_accepted"):
        sample = orc.metricsd.latest(name, labels)
        assert sample is not None, f"{name} missing from metricsd"
    assert orc.metricsd.latest("sessions_active", labels).value == 1.0
    # dp_rules reflects the installed session's flow rules.
    assert orc.metricsd.latest("dp_rules", labels).value > 0


def test_mme_counters_ride_along():
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)
    attach_one(sim, ues)
    ues[0].go_idle()
    sim.run(until=sim.now + 10.0)
    labels = {"gateway_id": "agw-1"}
    assert orc.metricsd.latest("attach_accepted", labels).value == 1.0
    assert orc.metricsd.latest("idle_transitions", labels).value == 1.0
    assert agw.mme.stats["idle_transitions"] == 1


# -- headless buffering + back-fill --------------------------------------------


def test_headless_metrics_backfill_without_duplicates():
    sim, network, orc, agw, enb, ues = build_deployment(checkin_interval=5.0)
    sim.run(until=12.0)  # a couple of successful check-ins
    labels = {"gateway_id": "agw-1"}
    before = len(orc.metricsd.query("sessions_active", labels))
    assert before >= 1

    network.set_node_up("orc", False)
    sim.run(until=sim.now + 30.0)  # ~6 failed check-ins buffer samples
    assert agw.magmad.stats["checkins_failed"] >= 3
    buffered = agw.magmad.metrics_backlog_depth()
    assert buffered >= 3

    network.set_node_up("orc", True)
    sim.run(until=sim.now + 15.0)  # reconnect; back-fill drains
    samples = orc.metricsd.query("sessions_active", labels)
    # Every buffered snapshot landed, at its capture time, exactly once.
    times = [s.time for s in samples]
    assert len(times) == len(set(times))
    assert len(samples) >= before + buffered
    # The gateway's buffer drained after the ack.
    assert agw.magmad.metrics_backlog_depth() <= 1
    assert agw.magmad.stats["metrics_acked"] >= buffered


def test_headless_buffer_is_bounded(monkeypatch):
    from repro.core.agw import AgwConfig, magmad
    from repro.deploy import build

    monkeypatch.setattr(magmad, "METRICS_BUFFER_MAX", 5)
    d = build(num_enbs=0, num_ues=0, backhaul="fiber",
              config=AgwConfig(checkin_interval=1.0))
    agw = d.agw
    d.network.set_node_up("orc", False)
    d.sim.run(until=60.0)  # ~60 failed check-ins against a 5-deep buffer
    assert agw.magmad.metrics_backlog_depth() == 5
    assert agw.magmad.stats["metrics_buffered"] > 5


# -- metricsd retention / eviction ---------------------------------------------


def test_retention_drops_old_samples_on_ingest(monkeypatch):
    monkeypatch.setattr(metricsd, "RETENTION", 10.0)
    m = Metricsd()
    m.ingest("x", 1.0, time=0.0)
    m.ingest("x", 2.0, time=5.0)
    m.ingest("x", 3.0, time=20.0)  # pushes t=0 and t=5 out of the window
    samples = m.query("x")
    assert [s.value for s in samples] == [3.0]
    assert m.stats["dropped_old"] == 2


def test_out_of_order_backfill_within_retention_is_kept(monkeypatch):
    monkeypatch.setattr(metricsd, "RETENTION", 100.0)
    m = Metricsd()
    m.ingest("x", 1.0, time=50.0)
    m.ingest("x", 2.0, time=20.0)  # late back-fill, still inside retention
    assert [s.value for s in m.query("x")] == [1.0, 2.0]
    assert m.stats["dropped_old"] == 0


def test_out_of_order_sample_older_than_retention_dropped(monkeypatch):
    monkeypatch.setattr(metricsd, "RETENTION", 10.0)
    m = Metricsd()
    m.ingest("x", 1.0, time=100.0)
    m.ingest("x", 2.0, time=50.0)  # arrives too late to matter
    assert [s.value for s in m.query("x")] == [1.0]
    assert m.stats["dropped_old"] == 1
    assert m.stats["ingested"] == 1


def test_max_samples_bound(monkeypatch):
    monkeypatch.setattr(metricsd, "MAX_SAMPLES_PER_SERIES", 3)
    m = Metricsd()
    for i in range(6):
        m.ingest("x", float(i), time=float(i))
    samples = m.query("x")
    assert len(samples) == 3
    assert [s.value for s in samples] == [3.0, 4.0, 5.0]
    assert m.stats["dropped_old"] == 3


# -- alerting off ingested series ----------------------------------------------


def test_threshold_rule_fires_off_ingested_data():
    m = Metricsd()
    rule = metric_threshold_rule(m, name="too-many-rejects",
                                 metric="attach_rejected", threshold=2.0)
    assert rule.evaluate() == []
    m.ingest("attach_rejected", 1.0, time=1.0,
             labels={"gateway_id": "agw-1"})
    m.ingest("attach_rejected", 5.0, time=1.0,
             labels={"gateway_id": "agw-2"})
    assert rule.evaluate() == ["agw-2"]
    m.ingest("attach_rejected", 9.0, time=2.0,
             labels={"gateway_id": "agw-1"})
    assert rule.evaluate() == ["agw-1", "agw-2"]


def test_attach_reject_alert_fires_end_to_end():
    """An alert raised purely from metrics that flowed AGW -> orc8r."""
    from repro.lte import Ue, make_imsi
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)
    assert orc.evaluate_alerts() == []
    # An unprovisioned IMSI is rejected; the counter rides the check-in.
    ghost = Ue(sim, make_imsi(99), b"\x00" * 16, b"\x00" * 16, enb)
    done = ghost.attach()
    result = sim.run_until_triggered(done, limit=sim.now + 60.0)
    assert not result.success
    sim.run(until=sim.now + 10.0)  # next check-in delivers the metric
    alerts = orc.evaluate_alerts()
    assert any(a.rule_name == "attach-rejections" and a.subject == "agw-1"
               for a in alerts)
