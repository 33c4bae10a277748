"""Unified telemetry pipeline: AGW metrics -> magmad check-ins -> metricsd.

Covers the §3.4 best-effort telemetry story: datapath/session gauges land
in the orchestrator labelled by gateway, headless gaps are buffered and
back-filled without duplicates, retention bounds the store, and alert
rules fire off ingested data.
"""

from repro.core.orchestrator import Metricsd, metricsd

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
    from repro.core.orchestrator import Orchestrator
    from repro.net import Network
    from repro.sim import RngRegistry, Simulator
    sim = Simulator()
    orc = Orchestrator(sim, Network(sim, RngRegistry(1)), "orc")
    m = orc.shards[0].metricsd
    sim.run(until=1.0)
    assert orc._rejecting_gateways() == []
    for gateway_id in ("agw-1", "agw-2"):
        m.ingest("attach_rejected", 0.0, time=0.5,
                 labels={"gateway_id": gateway_id})
    m.ingest("attach_rejected", 0.0, time=1.0,
             labels={"gateway_id": "agw-1"})
    m.ingest("attach_rejected", 5.0, time=1.0,
             labels={"gateway_id": "agw-2"})
    assert orc._rejecting_gateways() == ["agw-2"]
    sim.run(until=2.0)
    m.ingest("attach_rejected", 9.0, time=2.0,
             labels={"gateway_id": "agw-1"})
    assert orc._rejecting_gateways() == ["agw-1", "agw-2"]


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


def test_attach_reject_alert_resolves_after_a_window_without_rejections():
    """The MME's rejection counter is cumulative: the alert thresholds its
    rise inside the health window, so it clears once a window passes
    with no new rejection, and fires again on the next one."""
    from repro.lte import Ue, make_imsi
    from repro.obs.health import WINDOW
    sim, network, orc, agw, enb, ues = build_deployment()
    sim.run(until=10.0)
    ghost = Ue(sim, make_imsi(99), b"\x00" * 16, b"\x00" * 16, enb)
    assert not sim.run_until_triggered(ghost.attach(),
                                       limit=sim.now + 60.0).success
    attach_one(sim, ues)
    sim.run(until=sim.now + 10.0)
    assert [a.subject for a in orc.evaluate_alerts()
            if a.rule_name == "attach-rejections"] == ["agw-1"]
    sim.run(until=sim.now + WINDOW + 10.0)
    orc.evaluate_alerts()
    assert orc.metricsd.latest("attach_rejected",
                               {"gateway_id": "agw-1"}).value == 1.0
    assert not any(a.rule_name == "attach-rejections"
                   for a in orc.alerts.active_alerts())
    assert not sim.run_until_triggered(ghost.attach(),
                                       limit=sim.now + 60.0).success
    sim.run(until=sim.now + 10.0)
    assert [a.subject for a in orc.evaluate_alerts()
            if a.rule_name == "attach-rejections"] == ["agw-1"]


def test_attach_reject_alert_fires_and_resolves_at_the_default_checkin():
    """At the default 60 s check-in each health window holds about one
    sample: a single rejection still fires the alert once its check-in
    lands, and the next quiet check-in resolves it."""
    from repro.deploy import build
    from repro.lte import Ue, make_imsi
    from repro.obs.health import WINDOW
    d = build(num_ues=1, backhaul="fiber")
    sim, orc = d.sim, d.orc
    labels = {"gateway_id": d.agw.context.node}
    d.run_until_synced()
    ghost = Ue(sim, make_imsi(99), b"\x00" * 16, b"\x00" * 16, d.enbs[0])
    assert not sim.run_until_triggered(ghost.attach(),
                                       limit=sim.now + 60.0).success
    rejected_at = sim.now
    sim.run(until=rejected_at + d.agw.context.config.checkin_interval + 5.0)
    window = [s for s in orc.metricsd.query("attach_rejected", labels)
              if s.time >= sim.now - WINDOW]
    assert [s.value for s in window] == [1.0]
    assert [a.subject for a in orc.evaluate_alerts()
            if a.rule_name == "attach-rejections"] == [labels["gateway_id"]]
    sim.run(until=sim.now + d.agw.context.config.checkin_interval)
    orc.evaluate_alerts()
    assert not any(a.rule_name == "attach-rejections"
                   for a in orc.alerts.active_alerts())
