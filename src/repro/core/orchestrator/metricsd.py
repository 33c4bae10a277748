"""metricsd: the orchestrator's telemetry store (Prometheus stand-in).

Metrics state is "captured on a best-effort basis" (§3.4): gateways push
samples with their check-ins; nothing blocks on metrics delivery, and a
bounded retention window drops old samples.

A gateway ships the same metric names with one capture time and one
label set every check-in, so storage is by *arrival*: the series that
always arrive together share a block, and one check-in is one row of it
(DESIGN.md, "Batched metric ingest").  ``Sample`` is built on read.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

#: Samples older than this behind the newest capture time are dropped.
RETENTION = 7 * 24 * 3600.0
#: Rows kept per series (per block) before the oldest is evicted.
MAX_SAMPLES_PER_SERIES = 100_000

Labels = Tuple[Tuple[str, str], ...]
SeriesKey = Tuple[str, Labels]
Signature = Tuple[Labels, Tuple[str, ...]]


def _freeze(labels: Optional[Dict[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class Sample(NamedTuple):
    """One immutable sample, as ``query`` and ``latest`` return it."""

    time: float
    value: float
    trace_id: Optional[int] = None


class _Block:
    """The series of one label set that have always arrived together.

    Each arrival is one row ``(time, trace_id, value, ...)`` with a value
    per name, so the series share their arrival order, their retention
    and cap evictions and their newest row.  Arrivals are numbered from
    0: ``rows`` holds ``head`` up to ``tail``, and ``latest`` is the
    number of the newest row by capture time (ties go to the later
    arrival), None while ``rows`` is empty.
    """

    __slots__ = ("labels", "names", "rows", "head", "tail", "latest",
                 "latest_time")

    def __init__(self, labels: Labels, names: Tuple[str, ...]):
        self.labels = labels
        self.names = names
        self.rows: Deque[tuple] = deque()
        self.head = 0
        self.tail = 0
        self.latest: Optional[int] = None
        self.latest_time = 0.0


class Metricsd:
    """Time-series metric samples keyed by (name, labels)."""

    def __init__(self):
        # Every series lives in exactly one block, at one row index.  A
        # series stays registered when retention drains it: alert rules
        # treat "known but sampleless" as skip, not as resolved.
        self._series: Dict[SeriesKey, Tuple[_Block, int]] = {}
        self._blocks: Dict[Signature, _Block] = {}
        # A signature without a block of its own lands one width-1 block
        # per name (see _home).
        self._routes: Dict[Signature, List[_Block]] = {}
        # High-water ingest time: back-filled samples (headless gaps) carry
        # capture times older than "now", so retention is judged against the
        # newest time ever seen, not against each sample's own time.
        self._now = 0.0
        self.stats = {"ingested": 0, "dropped_old": 0}

    def ingest(self, name: str, value: float, time: float,
               labels: Optional[Dict[str, str]] = None,
               trace_id: Optional[int] = None) -> None:
        self._ingest((name,), (time, trace_id, value), labels)

    def ingest_bundle(self, metrics: Dict[str, float], time: float,
                      labels: Optional[Dict[str, str]] = None) -> None:
        self._ingest(tuple(metrics), (time, None, *metrics.values()), labels)

    def _ingest(self, names: Tuple[str, ...], row: tuple,
                labels: Optional[Dict[str, str]]) -> None:
        """Land one arrival ``row`` for the series ``names`` of ``labels``:
        the retention gate, the label freeze and the block lookup are
        paid once, whatever the number of names."""
        if not names:
            return  # no sample, so no capture time to move the clock by
        time = row[0]
        if time > self._now:
            self._now = time
        elif self._now - time > RETENTION:
            # Too old to matter by the time it arrived (late back-fill).
            self.stats["dropped_old"] += len(names)
            return
        frozen = _freeze(labels)
        signature = (frozen, names)
        block = self._blocks.get(signature)
        if block is None and signature not in self._routes:
            block = self._home(frozen, names)
        if block is not None:
            self._land(block, row)
        else:
            trace_id = row[1]
            for block, value in zip(self._routes[signature], row[2:]):
                self._land(block, (time, trace_id, value))
        self.stats["ingested"] += len(names)

    def _home(self, labels: Labels,
              names: Tuple[str, ...]) -> Optional[_Block]:
        """Place a signature that has no block: a new block when none of
        its series exists yet.  Otherwise every block it overlaps splits
        into width-1 blocks, the signature's route (one width-1 block per
        name) is cached, and None is returned."""
        keys = [(name, labels) for name in names]
        series = self._series
        if not any(key in series for key in keys):
            return self._new_block(labels, names)
        for key in keys:
            entry = series.get(key)
            if entry is not None and len(entry[0].names) > 1:
                self._split(entry[0])
        self._routes[(labels, names)] = [
            series[key][0] if key in series
            else self._new_block(labels, key[:1]) for key in keys]
        return None

    def _new_block(self, labels: Labels, names: Tuple[str, ...]) -> _Block:
        block = _Block(labels, names)
        self._blocks[(labels, names)] = block
        for index, name in enumerate(names, 2):
            self._series[(name, labels)] = (block, index)
        return block

    def _split(self, block: _Block) -> None:
        """Give each series of ``block`` a width-1 block with its rows."""
        del self._blocks[(block.labels, block.names)]
        for index, name in enumerate(block.names, 2):
            part = self._new_block(block.labels, (name,))
            part.rows.extend((row[0], row[1], row[index])
                             for row in block.rows)
            part.head, part.tail = block.head, block.tail
            part.latest, part.latest_time = block.latest, block.latest_time

    def _land(self, block: _Block, row: tuple) -> None:
        arrival = block.tail
        block.tail = arrival + 1
        block.rows.append(row)
        if block.latest is None or row[0] >= block.latest_time:
            block.latest, block.latest_time = arrival, row[0]
        if (block.tail - block.head > MAX_SAMPLES_PER_SERIES
                or self._now - block.rows[0][0] > RETENTION):
            self._evict(block)

    def _evict(self, block: _Block) -> None:
        """Pop whole rows off the head while it is past retention or the
        block is over the per-series cap."""
        rows, now, head = block.rows, self._now, block.head
        while rows and (now - rows[0][0] > RETENTION
                        or block.tail - head > MAX_SAMPLES_PER_SERIES):
            rows.popleft()
            head += 1
        self.stats["dropped_old"] += (head - block.head) * len(block.names)
        block.head = head
        if not rows:
            block.latest = None
        elif block.latest < head:
            latest, latest_time = head, rows[0][0]
            for arrival, row in enumerate(rows, head):
                if row[0] >= latest_time:
                    latest, latest_time = arrival, row[0]
            block.latest, block.latest_time = latest, latest_time

    # -- queries ---------------------------------------------------------------

    def query(self, name: str,
              labels: Optional[Dict[str, str]] = None) -> List[Sample]:
        entry = self._series.get((name, _freeze(labels)))
        if entry is None:
            return []
        block, index = entry
        return [Sample(row[0], row[index], row[1]) for row in block.rows]

    def latest(self, name: str,
               labels: Optional[Dict[str, str]] = None) -> Optional[Sample]:
        """Newest sample by capture time (None for empty/unknown series).

        Robust to out-of-order arrival: a late back-filled sample older
        than what is already stored never becomes "latest".
        """
        entry = self._series.get((name, _freeze(labels)))
        if entry is None or entry[0].latest is None:
            return None
        block, index = entry
        row = block.rows[block.latest - block.head]
        return Sample(row[0], row[index], row[1])

    def series_names(self) -> List[str]:
        return sorted({name for (name, _labels) in self._series})

    def label_sets(self, name: str) -> List[Dict[str, str]]:
        return [dict(labels) for (n, labels) in self._series if n == name]

    def sum_latest(self, name: str) -> float:
        """Sum of the latest sample across all label sets of ``name``.

        Adds in series creation order.  With retention and the cap fixed,
        a series never drains and refills (the row an ingest lands is
        inside retention, and a cap of at least 1 keeps it; a cap of 0
        keeps nothing), so this is the order the series first held a
        sample — float addition is not associative.
        """
        total = 0.0
        for (n, _labels), (block, index) in self._series.items():
            if n == name and block.latest is not None:
                total += block.rows[block.latest - block.head][index]
        return total
