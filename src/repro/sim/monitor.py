"""Time-series recording and summary statistics for experiments.

A :class:`Monitor` collects named ``(time, value)`` series during a run and
offers the aggregations the paper's figures need: windowed means (CPU
utilization in Fig. 5), binned success rates (5-second CSR bins in Fig. 6),
and percentiles/medians (Fig. 8).
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


class Series:
    """An append-only series of ``(time, value, trace_id)`` rows.

    One row per retained sample, held as three parallel lists (``times``,
    ``values``, ``trace_ids``) that are appended and decimated together,
    so a sample's trace id can never come apart from its value.

    Two recording modes:

    - **Exact** (default, ``max_samples=None``): every sample is retained.
    - **Streaming** (``max_samples=N``): scalar aggregates (count, sum,
      min, max, last) stay exact, but the retained rows are bounded by
      stride decimation: sample *i* is kept exactly when *i* is a
      multiple of the stride.  A full buffer halves (keeping its even
      rows, whose indices are the multiples of the doubled stride) before
      the next on-grid sample is appended, so it never holds more than
      ``N`` rows, always holds ``range(0, count, stride)``, and keeps its
      newest on-grid sample.  At fleet scale (10⁶ samples per metric) the
      unbounded lists are the memory bill; the grid keeps percentiles and
      binning usable (a uniform-in-index subsample) while
      ``mean``/``total``/``max``/``last``/``count`` remain exact.  No RNG
      is involved, so replay determinism is untouched.
    """

    __slots__ = ("name", "times", "values", "trace_ids", "max_samples",
                 "_stride", "_count", "_sum", "_min", "_max", "_last_t",
                 "_last_v")

    def __init__(self, name: str, max_samples: Optional[int] = None):
        if max_samples is not None and max_samples < 2:
            raise ValueError("max_samples must be >= 2 (or None for exact)")
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []
        self.trace_ids: List[Optional[int]] = []
        self.max_samples = max_samples
        self._stride = 1      # keep sample i when i % _stride == 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._last_t = 0.0
        self._last_v = 0.0

    def record(self, t: float, value: float,
               trace_id: Optional[int] = None) -> None:
        """Append a sample at time ``t``.

        Times must be non-decreasing; *equal* timestamps are explicitly
        allowed (several events in the same simulation tick record at the
        same ``sim.now``) and preserve insertion order.  Only a strictly
        backwards ``t`` raises.

        ``trace_id`` (the procedure's trace, a Prometheus-style exemplar)
        rides in the sample's row, so the metric resolves back to the
        trace that produced it for as long as the row is retained.
        """
        if self._count and t < self._last_t:
            raise ValueError(f"series {self.name!r}: time went backwards ({t} < {self._last_t})")
        index = self._count
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._last_t = t
        self._last_v = value
        if self.max_samples is not None:
            if index % self._stride:
                return
            if len(self.times) == self.max_samples:
                del self.times[1::2]
                del self.values[1::2]
                del self.trace_ids[1::2]
                self._stride *= 2
                if index % self._stride:
                    return
        self.times.append(t)
        self.values.append(value)
        self.trace_ids.append(trace_id)

    def recent_samples(self, t0: float) -> List[Tuple[float, float, Optional[int]]]:
        """Retained ``(time, value, trace_id)`` rows with ``time > t0``.

        The window is *exclusive* at ``t0`` so callers shipping deltas
        (e.g. magmad's metric back-fill) can pass the previous batch's
        high-water mark without duplicating the boundary sample.
        """
        lo = bisect.bisect_right(self.times, t0)
        return list(zip(self.times[lo:], self.values[lo:],
                        self.trace_ids[lo:]))

    @property
    def count(self) -> int:
        """Exact number of recorded samples (retained or not)."""
        return self._count

    @property
    def retained(self) -> int:
        """Samples physically held in the buffer (== count when exact)."""
        return len(self.times)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def mean(self) -> float:
        if not self._count:
            raise ValueError(f"series {self.name!r} is empty")
        return self._sum / self._count

    def total(self) -> float:
        return self._sum

    def max(self) -> float:
        if not self._count:
            raise ValueError(f"series {self.name!r} is empty")
        return self._max

    def min(self) -> float:
        if not self._count:
            raise ValueError(f"series {self.name!r} is empty")
        return self._min

    def last(self) -> float:
        if not self._count:
            raise ValueError(f"series {self.name!r} is empty")
        return self._last_v

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile of the values, q in [0, 100]."""
        if not self.values:
            raise ValueError(f"series {self.name!r} is empty")
        return percentile(self.values, q)

    def median(self) -> float:
        return self.percentile(50.0)

    def between(self, t0: float, t1: float) -> "Series":
        """Sub-series with t0 <= time < t1 (over retained samples)."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_left(self.times, t1)
        sub = Series(self.name)
        for t, v, trace_id in zip(self.times[lo:hi], self.values[lo:hi],
                                  self.trace_ids[lo:hi]):
            sub.record(t, v, trace_id)
        return sub

    def binned(self, width: float, t0: float = 0.0, t1: Optional[float] = None,
               agg: str = "mean") -> List[Tuple[float, float]]:
        """Aggregate into fixed-width bins.

        Returns ``[(bin_start, aggregate), ...]``.  ``agg`` is one of
        ``mean``, ``sum``, ``count``, ``max``.  Empty bins yield 0 for
        sum/count and NaN for mean/max.
        """
        if width <= 0:
            raise ValueError("bin width must be positive")
        if t1 is None:
            t1 = self.times[-1] + width if self.times else t0 + width
        # Bin count from the same robust index as the samples: float division
        # can land a hair above an exact multiple (5.6/0.7 -> 8.000…002),
        # which would manufacture a trailing empty bin via ceil().
        edge = _bin_index(t1, t0, width)
        nbins = max(1, edge if t0 + edge * width == t1 else edge + 1)
        buckets: List[List[float]] = [[] for _ in range(nbins)]
        for t, v in zip(self.times, self.values):
            if t0 <= t < t1:
                idx = _bin_index(t, t0, width)
                if idx >= nbins:  # float residue guard at the t1 edge
                    idx = nbins - 1
                buckets[idx].append(v)
        out = []
        for i, bucket in enumerate(buckets):
            start = t0 + i * width
            if agg == "count":
                out.append((start, float(len(bucket))))
            elif agg == "sum":
                out.append((start, float(sum(bucket))))
            elif agg == "mean":
                out.append((start, sum(bucket) / len(bucket) if bucket else float("nan")))
            elif agg == "max":
                out.append((start, max(bucket) if bucket else float("nan")))
            else:
                raise ValueError(f"unknown aggregation {agg!r}")
        return out


def _bin_index(t: float, t0: float, width: float) -> int:
    """Bucket index of ``t`` in fixed-width bins starting at ``t0``.

    ``int((t - t0) / width)`` alone is wrong at bin boundaries: float
    division rounds 0.2/0.1 down to 1.999…, misplacing a boundary sample
    into the previous bin, and can round the last edge *up* past the final
    bin.  Nudge the quotient until the invariant
    ``t0 + idx*width <= t < t0 + (idx+1)*width`` holds exactly in float
    arithmetic (at most one step in either direction).
    """
    idx = int((t - t0) / width)
    while t >= t0 + (idx + 1) * width:
        idx += 1
    while idx > 0 and t < t0 + idx * width:
        idx -= 1
    return idx


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile q out of range: {q}")
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return data[lo]
    frac = pos - lo
    return data[lo] * (1 - frac) + data[hi] * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def counter_rise(samples: Iterable[Any], since: float) -> Optional[float]:
    """How far a cumulative counter rose over a window that starts at
    ``since``: its newest sample's value less a baseline's, or None when
    there is no sample.

    The baseline is the newest sample captured at or before ``since``,
    else the oldest one after it, so a counter sampled once per window
    still shows a rise across the window's edge.  ``samples`` carry
    ``time`` and ``value`` and may come in any order (back-filled rows
    arrive late); of two at one instant the later is the newer.
    """
    newest = before = first = None
    for sample in samples:
        time = sample.time
        if newest is None or time >= newest.time:
            newest = sample
        if time <= since:
            if before is None or time >= before.time:
                before = sample
        elif first is None or time < first.time:
            first = sample
    if newest is None:
        return None
    return newest.value - (first if before is None else before).value


class Monitor:
    """A registry of named time series."""

    def __init__(self):
        self._series: Dict[str, Series] = {}

    def series(self, name: str) -> Series:
        s = self._series.get(name)
        if s is None:
            s = Series(name)
            self._series[name] = s
        return s

    def bounded_series(self, name: str, max_samples: int = 4096) -> Series:
        """The named series in streaming mode (bounded sample buffer).

        Fleet-scale metrics record 10⁶+ samples; this keeps scalar
        aggregates exact while capping the retained buffer (see
        :class:`Series`).  The mode is fixed at first creation: asking for
        a bound on an existing exact series (or a different bound) raises,
        because silently dropping already-retained samples would corrupt
        the series' contract mid-run.
        """
        s = self._series.get(name)
        if s is None:
            s = Series(name, max_samples=max_samples)
            self._series[name] = s
        elif s.max_samples != max_samples:
            raise ValueError(
                f"series {name!r} already exists with max_samples="
                f"{s.max_samples}, asked for {max_samples}")
        return s

    def record(self, name: str, t: float, value: float,
               trace_id: Optional[int] = None) -> None:
        self.series(name).record(t, value, trace_id=trace_id)

    def percentile(self, name: str, q: float) -> float:
        """Percentile over a named series' values (raises if empty)."""
        return self.series(name).percentile(q)

    def median(self, name: str) -> float:
        return self.percentile(name, 50.0)

    def names(self) -> Iterable[str]:
        return self._series.keys()
