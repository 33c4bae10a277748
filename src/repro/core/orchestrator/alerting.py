"""Alerting: rules evaluated over orchestrator state and metrics.

Central monitoring is one of the two generic functions Magma adds beyond
the 3GPP feature set (Table 1: "telemetry and logging - no equivalent
defined").  Operators consume these alerts through the northbound API.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ...record import record


@record(frozen=True)
class Alert:
    rule_name: str
    subject: str
    message: str
    raised_at: float


@record
class AlertRule:
    """A named predicate producing alert subjects when it fires."""

    name: str
    evaluate: Callable[[], List[str]]   # returns offending subjects
    message: str = ""


class AlertManager:
    """Evaluates rules; deduplicates active alerts until they resolve.

    ``recorder`` is an optional zero-arg callable returning the installed
    flight recorder (or None): every newly raised alert then logs a record
    and freezes a ring snapshot, so the operator sees the events leading
    up to the firing, not just the firing itself.
    """

    def __init__(self, clock=None, recorder=None):
        self._clock = clock or (lambda: 0.0)
        self._recorder = recorder
        self._rules: Dict[str, AlertRule] = {}
        self._active: Dict[tuple, Alert] = {}
        self._history: List[Alert] = []
        self.stats = {"evaluations": 0, "rule_errors": 0}

    def add_rule(self, rule: AlertRule) -> None:
        if rule.name in self._rules:
            raise ValueError(f"duplicate alert rule {rule.name!r}")
        self._rules[rule.name] = rule

    def evaluate(self) -> List[Alert]:
        """Run all rules; returns newly raised alerts.

        A rule that raises is skipped for this round — its error is
        counted in ``stats['rule_errors']`` and its currently active
        alerts are kept firing (an evaluation failure must never silently
        resolve an alert, and must not abort the other rules).
        """
        now = self._clock()
        self.stats["evaluations"] += 1
        new_alerts: List[Alert] = []
        still_firing = set()
        for rule in self._rules.values():
            try:
                subjects = rule.evaluate()
            except Exception:  # one bad rule must not mute the others
                self.stats["rule_errors"] += 1
                for key in self._active:
                    if key[0] == rule.name:
                        still_firing.add(key)
                continue
            for subject in subjects:
                key = (rule.name, subject)
                still_firing.add(key)
                if key not in self._active:
                    alert = Alert(rule_name=rule.name, subject=subject,
                                  message=rule.message or rule.name,
                                  raised_at=now)
                    self._active[key] = alert
                    self._history.append(alert)
                    new_alerts.append(alert)
                    self._snapshot(alert)
        # Resolve alerts whose condition cleared.
        for key in list(self._active):
            if key not in still_firing:
                del self._active[key]
        return new_alerts

    def _snapshot(self, alert: Alert) -> None:
        if self._recorder is None:
            return
        rec = self._recorder()
        if rec is None:
            return
        rec.node("alertmanager").warn(
            "alerting", "alert.raised", rule=alert.rule_name,
            subject=alert.subject, message=alert.message)
        rec.snapshot(f"alert:{alert.rule_name}:{alert.subject}")

    def active_alerts(self) -> List[Alert]:
        return list(self._active.values())

    def history(self) -> List[Alert]:
        return list(self._history)
