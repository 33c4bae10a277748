"""Trace analysis: critical-path breakdowns and per-procedure summaries.

Answers the debugging questions the paper's operational story needs
("why did this attach take 900 ms?"): for each trace, where the time went
by component (self-time, excluding child spans), and across traces,
latency percentiles per procedure type.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.monitor import percentile
from .tracing import SpanRecord


def _merged_intervals(intervals: List[Tuple[float, float]]
                      ) -> List[Tuple[float, float]]:
    """Union of possibly-overlapping (start, end) intervals."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            last_start, last_end = merged[-1]
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _overlap_length(lo: float, hi: float,
                    merged: List[Tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by a *merged* interval list."""
    total = 0.0
    for a, b in merged:
        if b <= lo:
            continue
        if a >= hi:
            break
        total += min(b, hi) - max(a, lo)
    return total


class TraceView:
    """One assembled trace: a root span plus its descendant tree."""

    def __init__(self, trace_id: int, spans: List[SpanRecord]):
        self.trace_id = trace_id
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        self._children: Dict[int, List[SpanRecord]] = {}
        self.root: Optional[SpanRecord] = None
        ids = {s.span_id for s in self.spans}
        orphans: List[SpanRecord] = []
        for span in self.spans:
            if span.parent_id is None or span.parent_id not in ids:
                orphans.append(span)
                if self.root is None:
                    self.root = span
            else:
                self._children.setdefault(span.parent_id, []).append(span)
        # Depth of each span in the tree (orphans count as depth 0).
        self._depth: Dict[int, int] = {}
        stack = [(span, 0) for span in orphans]
        while stack:
            span, depth = stack.pop()
            self._depth[span.span_id] = depth
            for child in self._children.get(span.span_id, []):
                stack.append((child, depth + 1))

    @property
    def name(self) -> str:
        return self.root.name if self.root is not None else ""

    @property
    def complete(self) -> bool:
        return self.root is not None and self.root.finished

    @property
    def duration(self) -> float:
        return self.root.duration if self.root is not None else 0.0

    def children(self, span: SpanRecord) -> List[SpanRecord]:
        return self._children.get(span.span_id, [])

    def breakdown(self, by: str = "component") -> Dict[str, float]:
        """Exclusive time per component (or span ``name``), in seconds.

        Flame-graph attribution over the root's time window: every instant
        goes to the *deepest* finished span covering it.  This stays exact
        when fire-and-forget children outlive their parent span (a stage
        process finishing after the RPC that spawned it replied) - the
        overhang is charged to the child, never double-counted - so values
        always sum to at most the root duration.
        """
        if self.root is None or not self.root.finished:
            return {}
        window_lo, window_hi = self.root.start, self.root.end_time
        order = sorted(
            (s for s in self.spans if s.finished),
            key=lambda s: (-self._depth.get(s.span_id, 0), s.start,
                           s.span_id))
        covered: List[Tuple[float, float]] = []
        out: Dict[str, float] = {}
        for span in order:
            lo = max(span.start, window_lo)
            hi = min(span.end_time, window_hi)
            if hi <= lo:
                continue
            exclusive = (hi - lo) - _overlap_length(lo, hi, covered)
            if exclusive > 0:
                key = getattr(span, by) or span.name
                out[key] = out.get(key, 0.0) + exclusive
            covered = _merged_intervals(covered + [(lo, hi)])
        return out

    def breakdown_fractions(self, by: str = "component") -> Dict[str, float]:
        """Breakdown as fractions of the root duration (the "62% in S1AP
        RTT, 21% in sessiond" view)."""
        total = self.duration
        if total <= 0:
            return {}
        return {k: v / total for k, v in self.breakdown(by).items()}

    def critical_path(self) -> List[SpanRecord]:
        """Root-to-leaf chain following the longest-duration child."""
        path: List[SpanRecord] = []
        span = self.root
        while span is not None:
            path.append(span)
            kids = [c for c in self.children(span) if c.finished]
            span = max(kids, key=lambda c: c.duration) if kids else None
        return path

    def format(self) -> str:
        """Human-readable critical-path breakdown for one trace."""
        if self.root is None:
            return f"trace {self.trace_id}: no root span"
        lines = [f"trace {self.trace_id:x} {self.name}: "
                 f"{self.duration * 1000:.1f} ms, {len(self.spans)} spans"]
        fractions = sorted(self.breakdown_fractions().items(),
                           key=lambda kv: -kv[1])
        for component, fraction in fractions:
            lines.append(f"  {fraction * 100:5.1f}%  {component}")
        return "\n".join(lines)


def build_traces(spans: Iterable[SpanRecord]) -> List[TraceView]:
    """Group spans into per-trace views, ordered by root start time."""
    by_trace: Dict[int, List[SpanRecord]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    views = [TraceView(trace_id, group)
             for trace_id, group in by_trace.items()]
    views.sort(key=lambda v: (v.root.start if v.root is not None else 0.0,
                              v.trace_id))
    return views


def procedure_summary(traces: Iterable[TraceView],
                      quantiles: Tuple[float, ...] = (50.0, 95.0, 99.0)
                      ) -> Dict[str, Dict[str, float]]:
    """Latency percentiles per procedure (root-span name) across traces."""
    durations: Dict[str, List[float]] = {}
    for trace in traces:
        if not trace.complete:
            continue
        durations.setdefault(trace.name, []).append(trace.duration)
    summary: Dict[str, Dict[str, float]] = {}
    for name, values in sorted(durations.items()):
        entry: Dict[str, float] = {
            "count": float(len(values)),
            "mean": sum(values) / len(values),
            "max": max(values),
        }
        for q in quantiles:
            entry[f"p{q:g}"] = percentile(values, q)
        summary[name] = entry
    return summary


def format_summary(summary: Dict[str, Dict[str, float]]) -> str:
    """Text table of the per-procedure percentile summary (ms)."""
    if not summary:
        return "no complete traces"
    stat_keys = [k for k in next(iter(summary.values())) if k != "count"]
    header = ["procedure", "count"] + [f"{k}(ms)" for k in stat_keys]
    rows = []
    for name, entry in summary.items():
        rows.append([name, f"{int(entry['count'])}"]
                    + [f"{entry[k] * 1000:.1f}" for k in stat_keys])
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i])
                               for i in range(len(row))))
    return "\n".join(lines)


def aggregate_breakdown(traces: Iterable[TraceView], procedure: str,
                        by: str = "component") -> Dict[str, float]:
    """Mean self-time fraction per component across traces of one
    procedure - the fleet-wide "where do attaches spend their time"."""
    totals: Dict[str, float] = {}
    count = 0
    for trace in traces:
        if not trace.complete or trace.name != procedure:
            continue
        count += 1
        for key, fraction in trace.breakdown_fractions(by).items():
            totals[key] = totals.get(key, 0.0) + fraction
    if count == 0:
        return {}
    return {k: v / count for k, v in sorted(totals.items())}
