"""Reference metricsd: the retired per-series ``Metricsd``.

``repro.core.orchestrator.metricsd`` used to keep one deque of ``Sample``
tuples per ``(name, labels)`` series, a ``_latest`` dict of the newest
sample by capture time per series, and a per-sample retention test.  The
product now stores the samples of one arrival as one row of a block
shared by every series that always arrives together (DESIGN.md, "Batched
metric ingest").  The class is kept here verbatim, out of the product, as
the model ``test_metricsd_oracle.py`` compares every read against after
every ingest — including ``sum_latest``, which adds in ``_latest``'s
insertion order (a series that drains and refills moves to its end).
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Deque, Dict, List, Optional, Tuple

from repro.core.orchestrator.metricsd import Sample

Labels = Tuple[Tuple[str, str], ...]


def _freeze(labels: Optional[Dict[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class ReferenceMetricsd:
    """Time-series metric samples keyed by (name, labels)."""

    def __init__(self, retention: float = 7 * 24 * 3600.0,
                 max_samples_per_series: int = 100_000):
        self.retention = retention
        self.max_samples = max_samples_per_series
        self._series: Dict[Tuple[str, Labels], Deque[Sample]] = {}
        # Newest-by-capture-time sample per series.  Deques hold samples in
        # *arrival* order, and metric back-fill delivers old samples late —
        # "latest" must mean newest capture time, not last arrival, or a
        # recovering gateway's back-fill would flip alerts onto stale data.
        self._latest: Dict[Tuple[str, Labels], Sample] = {}
        # High-water ingest time: back-filled samples (headless gaps) carry
        # capture times older than "now", so retention is judged against the
        # newest time ever seen, not against each sample's own time.
        self._now = 0.0
        self.stats = {"ingested": 0, "dropped_old": 0}

    def ingest(self, name: str, value: float, time: float,
               labels: Optional[Dict[str, str]] = None,
               trace_id: Optional[int] = None) -> None:
        self._ingest(((name, value),), time, labels, trace_id)

    def ingest_bundle(self, metrics: Dict[str, float], time: float,
                      labels: Optional[Dict[str, str]] = None) -> None:
        self._ingest(metrics.items(), time, labels, None)

    def _ingest(self, items: Collection[Tuple[str, float]], time: float,
                labels: Optional[Dict[str, str]],
                trace_id: Optional[int]) -> None:
        """Append samples that share a capture time and a label set: the
        retention gate and the label freeze are paid once for all."""
        if not items:
            return  # no sample, so no capture time to move the clock by
        if time > self._now:
            self._now = time
        elif self._now - time > self.retention:
            # Too old to matter by the time it arrived (late back-fill).
            self.stats["dropped_old"] += len(items)
            return
        now = self._now
        frozen = _freeze(labels)
        for name, value in items:
            key = (name, frozen)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = deque()
            sample = Sample(time, value, trace_id)
            series.append(sample)
            cur = self._latest.get(key)
            if cur is None or time >= cur.time:
                self._latest[key] = sample
            if (len(series) > self.max_samples
                    or now - series[0].time > self.retention):
                self._evict(key, series, now)
        self.stats["ingested"] += len(items)

    def _evict(self, key: Tuple[str, Labels], series: Deque[Sample],
               now: float) -> None:
        latest = self._latest.get(key)
        evicted_latest = False
        while series and (now - series[0].time > self.retention
                          or len(series) > self.max_samples):
            if series.popleft() is latest:
                evicted_latest = True
            self.stats["dropped_old"] += 1
        if not series:
            # Retention drained the series; drop the stale latest cache but
            # keep the (now empty) deque registered so label_sets/latest
            # still report the series as *known* — alert rules treat "known
            # but sampleless" as skip, not as resolved.
            self._latest.pop(key, None)
            return
        if evicted_latest:
            best = series[0]
            for s in series:
                if s.time >= best.time:
                    best = s
            self._latest[key] = best

    # -- queries ---------------------------------------------------------------

    def query(self, name: str,
              labels: Optional[Dict[str, str]] = None) -> List[Sample]:
        return list(self._series.get((name, _freeze(labels)), ()))

    def latest(self, name: str,
               labels: Optional[Dict[str, str]] = None) -> Optional[Sample]:
        """Newest sample by capture time (None for empty/unknown series).

        Robust to out-of-order arrival: a late back-filled sample older
        than what is already stored never becomes "latest".
        """
        return self._latest.get((name, _freeze(labels)))

    def series_names(self) -> List[str]:
        return sorted({name for (name, _labels) in self._series})

    def label_sets(self, name: str) -> List[Dict[str, str]]:
        return [dict(labels) for (n, labels) in self._series if n == name]

    def sum_latest(self, name: str) -> float:
        """Sum of the latest sample across all label sets of ``name``."""
        total = 0.0
        for key, latest in self._latest.items():
            if key[0] == name:
                total += latest.value
        return total
