"""Alerting: immediate firing, empty-series holds, back-fill safety.

Satellite coverage from the observability issue: a retention-pruned
series must not raise or silently resolve, and late back-filled samples
(older capture times arriving after an alert fired) must not flip state
onto stale data.  The rule under test is the orchestrator's own
``attach-rejections`` alert, which thresholds how much the cumulative
``attach_rejected`` counter rose over the 60 s health window, fed here by
samples ingested straight into the shard's metrics store.
"""

import pytest

from repro.core.orchestrator import Orchestrator
from repro.core.orchestrator.alerting import AlertManager, AlertRule
from repro.core.orchestrator.metricsd import Sample
from repro.net import Network
from repro.sim import RngRegistry, Simulator

RULE = "attach-rejections"


def orchestrator():
    sim = Simulator()
    return Orchestrator(sim, Network(sim, RngRegistry(1)), "orc")


def ingest(orc, value, time, gateway_id="a"):
    orc.shards[0].metricsd.ingest("attach_rejected", value, time,
                                  {"gateway_id": gateway_id})


def at(orc, now):
    """The rule's firing subjects with the clock at ``now``."""
    orc.sim.run(until=now)
    return orc._rejecting_gateways()


# -- firing and resolving ----------------------------------------------------------


def test_sustained_crossing_fires_and_single_recovery_resolves():
    orc = orchestrator()
    ingest(orc, 0.0, 5.0)
    ingest(orc, 1.0, 10.0)
    assert at(orc, 10.0) == ["a"]  # the first rise fires
    ingest(orc, 1.0, 42.0)
    assert at(orc, 42.0) == ["a"]  # the rise is still in the window
    # One window without a rise resolves.
    ingest(orc, 1.0, 80.0)
    assert at(orc, 80.0) == []


def test_crossing_fires_immediately_per_label():
    orc = orchestrator()
    for time, value in ((0.5, 0.0), (1.0, 2.0)):
        ingest(orc, value, time, "a")
        ingest(orc, 3.0, time, "b")
    assert at(orc, 1.0) == ["a"]


def test_one_sample_per_window_fires_across_the_window_edge():
    """At a check-in interval as long as the window, each window holds
    one sample: the rise is measured from the newest sample before it."""
    orc = orchestrator()
    ingest(orc, 0.0, 60.0)
    assert at(orc, 65.0) == []  # one sample, nothing to rise from
    ingest(orc, 1.0, 120.02)
    assert at(orc, 125.0) == ["a"]
    ingest(orc, 1.0, 180.03)
    assert at(orc, 185.0) == []
    # A counter that restarts from zero (the MME restarted) falls: no rise.
    ingest(orc, 0.0, 240.04)
    assert at(orc, 245.0) == []


# -- empty / pruned series ---------------------------------------------------------


class SeriesStore:
    """The two reads the rule makes (``label_sets``, ``query``) over
    plain sample lists, so a test can put a series in states ingest alone
    does not produce: known but emptied by retention, or gone."""

    def __init__(self):
        self.series = {}

    @staticmethod
    def key(name, labels):
        return name, tuple(sorted((labels or {}).items()))

    def ingest(self, name, value, time, labels):
        self.series.setdefault(self.key(name, labels), []).append(
            Sample(time, value))

    def label_sets(self, name):
        return [dict(labels) for (n, labels) in self.series if n == name]

    def query(self, name, labels=None):
        return list(self.series.get(self.key(name, labels), ()))


def test_retention_pruned_series_holds_state_not_resolves():
    orc = orchestrator()
    store = orc.shards[0].metricsd = SeriesStore()
    labels = {"gateway_id": "a"}
    ingest(orc, 0.0, 5.0)
    ingest(orc, 1.0, 10.0)
    assert at(orc, 10.0) == ["a"]
    # Retention prunes the series empty — but keeps it *known*.
    store.series[SeriesStore.key("attach_rejected", labels)].clear()
    assert store.query("attach_rejected", labels) == []
    assert store.label_sets("attach_rejected") == [labels]
    # No data is not evidence of recovery: the subject keeps firing, and
    # evaluation does not raise.
    assert at(orc, 100.0) == ["a"]


def test_vanished_label_set_does_resolve():
    orc = orchestrator()
    store = orc.shards[0].metricsd = SeriesStore()
    ingest(orc, 0.0, 5.0)
    ingest(orc, 1.0, 10.0)
    assert at(orc, 10.0) == ["a"]
    del store.series[SeriesStore.key("attach_rejected", {"gateway_id": "a"})]
    assert at(orc, 10.0) == []


# -- late back-fill ----------------------------------------------------------------


def test_late_backfill_does_not_resolve_a_fired_alert():
    """A recovering gateway back-fills old samples after the alert fired;
    the rise is read by capture time, so the alert holds."""
    orc = orchestrator()
    orc.sim.run(until=100.0)
    ingest(orc, 0.0, 50.0)
    ingest(orc, 1.0, 90.0)
    assert [a.subject for a in orc.evaluate_alerts()] == ["a"]
    # Back-fill: capture times *before* the newest sample, arriving late.
    for t, value in ((60.0, 0.0), (70.0, 1.0), (80.0, 1.0)):
        ingest(orc, value, t)
    orc.evaluate_alerts()
    assert [a.subject for a in orc.alerts.active_alerts()] == ["a"]
    assert orc.metricsd.latest("attach_rejected", {"gateway_id": "a"}) \
        .value == pytest.approx(1.0)
    # A genuinely newer window without a rise resolves it.
    orc.sim.run(until=160.0)
    ingest(orc, 1.0, 155.0)
    orc.evaluate_alerts()
    assert orc.alerts.active_alerts() == []


# -- manager dedup / isolation -----------------------------------------------------


def test_manager_dedups_until_resolution_and_keeps_history():
    orc = orchestrator()
    ingest(orc, 0.0, 0.0)
    ingest(orc, 1.0, 0.5)
    orc.sim.run(until=1.0)
    assert len(orc.evaluate_alerts()) == 1
    orc.sim.run(until=2.0)
    assert orc.evaluate_alerts() == []  # still firing: deduplicated
    orc.sim.run(until=100.0)
    ingest(orc, 1.0, 99.0)
    orc.evaluate_alerts()               # resolves
    orc.sim.run(until=101.0)
    ingest(orc, 2.0, 100.5)
    assert len(orc.evaluate_alerts()) == 1  # re-raise after resolve
    history = orc.alerts.history()
    assert [(a.rule_name, a.raised_at) for a in history] == \
        [(RULE, 1.0), (RULE, 101.0)]
    assert history[0].message == "gateway has rejected attach attempts"


def test_rule_error_is_isolated_and_keeps_its_alerts_firing():
    orc = orchestrator()
    manager = orc.alerts
    healthy = 0.0

    def flaky():
        raise RuntimeError("boom")

    manager.add_rule(AlertRule(name="flaky", evaluate=flaky))
    ingest(orc, 0.0, 0.5)
    ingest(orc, 1.0, 1.0)
    orc.sim.run(until=1.0)
    raised = manager.evaluate()
    assert [a.rule_name for a in raised] == [RULE]
    assert manager.stats["rule_errors"] == 1
    assert healthy == 0.0
    # Swap in a rule that fires, then make it error: its alert must hold.
    fired = {"on": True}
    manager._rules["flaky"] = AlertRule(
        name="flaky",
        evaluate=lambda: ["x"] if fired["on"] else flaky())
    manager.evaluate()
    assert ("flaky", "x") in manager._active
    fired["on"] = False
    manager.evaluate()
    assert ("flaky", "x") in manager._active  # error held it firing
    assert manager.stats["rule_errors"] == 2


def test_duplicate_rule_name_rejected():
    manager = AlertManager()
    manager.add_rule(AlertRule(name="r", evaluate=list))
    with pytest.raises(ValueError):
        manager.add_rule(AlertRule(name="r", evaluate=list))
