"""Alerting: immediate firing, empty-series holds, back-fill safety.

Satellite coverage from the observability issue: a retention-pruned
series must not raise or silently resolve, and late back-filled samples
(older capture times arriving after an alert fired) must not flip state
onto stale data.
"""

import pytest

from repro.core.orchestrator.alerting import (
    AlertManager,
    AlertRule,
    metric_threshold_rule,
)
from repro.core.orchestrator.metricsd import Metricsd, Sample


def cpu_rule(metricsd):
    return metric_threshold_rule(
        metricsd, name="cpu-high", metric="cpu_util", threshold=0.9)


# -- firing and resolving ----------------------------------------------------------


def test_sustained_crossing_fires_and_single_recovery_resolves():
    metricsd = Metricsd()
    rule = cpu_rule(metricsd)
    labels = {"gateway_id": "a"}
    metricsd.ingest("cpu_util", 0.95, 10.0, labels)
    assert rule.evaluate() == ["a"]  # the first crossing sample fires
    metricsd.ingest("cpu_util", 0.95, 42.0, labels)
    assert rule.evaluate() == ["a"]
    # One sample back on the safe side resolves.
    metricsd.ingest("cpu_util", 0.2, 50.0, labels)
    assert rule.evaluate() == []
    assert "cpu_util > 0.9" in rule.message


def test_crossing_fires_immediately_per_label():
    metricsd = Metricsd()
    rule = cpu_rule(metricsd)
    metricsd.ingest("cpu_util", 0.95, 1.0, {"gateway_id": "a"})
    metricsd.ingest("cpu_util", 0.5, 1.0, {"gateway_id": "b"})
    assert rule.evaluate() == ["a"]


# -- empty / pruned series ---------------------------------------------------------


class SeriesStore:
    """The three reads an alert rule makes (``label_sets``, ``latest``,
    ``query``) over plain sample lists, so a test can put a series in
    states ingest alone does not produce: known but emptied by
    retention, or gone."""

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

    def latest(self, name, labels=None):
        samples = self.query(name, labels)
        return max(samples, key=lambda s: s.time) if samples else None


def test_retention_pruned_series_holds_state_not_resolves():
    metricsd = SeriesStore()
    rule = cpu_rule(metricsd)
    labels = {"gateway_id": "a"}
    metricsd.ingest("cpu_util", 0.95, 10.0, labels)
    assert rule.evaluate() == ["a"]
    # Retention prunes the cpu series empty — but keeps it *known*.
    metricsd.series[SeriesStore.key("cpu_util", labels)].clear()
    assert metricsd.latest("cpu_util", labels) is None
    assert metricsd.label_sets("cpu_util") == [labels]
    # No data is not evidence of recovery: the subject keeps firing, and
    # evaluation does not raise.
    assert rule.evaluate() == ["a"]


def test_vanished_label_set_does_resolve():
    metricsd = SeriesStore()
    rule = cpu_rule(metricsd)
    labels = {"gateway_id": "a"}
    metricsd.ingest("cpu_util", 0.95, 10.0, labels)
    assert rule.evaluate() == ["a"]
    del metricsd.series[SeriesStore.key("cpu_util", labels)]
    assert rule.evaluate() == []


# -- late back-fill ----------------------------------------------------------------


def test_late_backfill_does_not_resolve_a_fired_alert():
    """A recovering gateway back-fills old (safe-looking) samples after
    the alert fired; 'latest' is by capture time, so the alert holds."""
    metricsd = Metricsd()
    manager = AlertManager(clock=lambda: 100.0)
    manager.add_rule(cpu_rule(metricsd))
    labels = {"gateway_id": "a"}
    metricsd.ingest("cpu_util", 0.95, 90.0, labels)
    assert [a.subject for a in manager.evaluate()] == ["a"]
    # Back-fill: capture times *before* the crossing, arriving late.
    for t in (60.0, 70.0, 80.0):
        metricsd.ingest("cpu_util", 0.3, t, labels)
    manager.evaluate()
    assert [a.subject for a in manager.active_alerts()] == ["a"]
    assert metricsd.latest("cpu_util", labels).value == pytest.approx(0.95)
    # A genuinely newer recovery sample resolves it.
    metricsd.ingest("cpu_util", 0.3, 95.0, labels)
    manager.evaluate()
    assert manager.active_alerts() == []


# -- manager dedup / isolation -----------------------------------------------------


def test_manager_dedups_until_resolution_and_keeps_history():
    metricsd = Metricsd()
    times = iter((1.0, 2.0, 3.0, 4.0))
    manager = AlertManager(clock=lambda: next(times))
    manager.add_rule(cpu_rule(metricsd))
    labels = {"gateway_id": "a"}
    metricsd.ingest("cpu_util", 0.95, 0.5, labels)
    assert len(manager.evaluate()) == 1
    assert manager.evaluate() == []  # still firing: deduplicated
    metricsd.ingest("cpu_util", 0.2, 2.5, labels)
    manager.evaluate()               # resolves
    metricsd.ingest("cpu_util", 0.95, 3.5, labels)
    assert len(manager.evaluate()) == 1  # re-raise after resolve
    assert len(manager.history()) == 2


def test_rule_error_is_isolated_and_keeps_its_alerts_firing():
    metricsd = Metricsd()
    manager = AlertManager()
    healthy = 0.0

    def flaky():
        raise RuntimeError("boom")

    manager.add_rule(cpu_rule(metricsd))
    manager.add_rule(AlertRule(name="flaky", evaluate=flaky))
    labels = {"gateway_id": "a"}
    metricsd.ingest("cpu_util", 0.95, 1.0, labels)
    raised = manager.evaluate()
    assert [a.rule_name for a in raised] == ["cpu-high"]
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
