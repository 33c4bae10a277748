"""Chrome trace-event JSON export.

Produces the trace-event format consumed by ``chrome://tracing`` and
Perfetto (https://ui.perfetto.dev): open either, load the exported file,
and every simulated procedure renders as a nested flame of spans.

Mapping: each simulation *node* (AGW, eNodeB, orchestrator, UE...) becomes
a "process" row, each *trace* a "thread" within it, and each finished span
a complete ("X") event with microsecond virtual-clock timestamps.

Flight-recorder records ride along as instant ("i") events: a record that
carries a trace id lands on that trace's thread inside its node's process
row, so structured log lines appear interleaved with the very spans they
were emitted under.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from .tracing import SpanRecord


def to_chrome_trace(spans: Iterable[SpanRecord],
                    records: Optional[Iterable[Any]] = None) -> Dict[str, Any]:
    """Build a Chrome trace-event document from finished spans.

    ``records`` (optional) is an iterable of flight-recorder
    :class:`~repro.obs.flightrec.LogRecord` rows to merge as instant
    events.
    """
    spans = [s for s in spans if s.finished]
    pids: Dict[str, int] = {}
    tids: Dict[int, int] = {}
    events: List[Dict[str, Any]] = []
    for span in spans:
        row = span.node or span.component or "sim"
        pid = pids.setdefault(row, len(pids) + 1)
        tid = tids.setdefault(span.trace_id, len(tids) + 1)
        args: Dict[str, Any] = {
            "trace_id": f"{span.trace_id:x}",
            "span_id": f"{span.span_id:x}",
            "status": span.status,
        }
        if span.parent_id is not None:
            args["parent_id"] = f"{span.parent_id:x}"
        for key, value in span.tags.items():
            args[str(key)] = value if isinstance(
                value, (int, float, bool)) else str(value)
        events.append({
            "name": span.name,
            "cat": span.component or "span",
            "ph": "X",
            "ts": round(span.start * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    for rec in records or ():
        row = rec.node or rec.component or "sim"
        pid = pids.setdefault(row, len(pids) + 1)
        # A trace-correlated record lands on its trace's thread row;
        # uncorrelated ones get process scope on the node's thread 0.
        if rec.trace_id is not None:
            tid = tids.setdefault(rec.trace_id, len(tids) + 1)
            scope = "t"
        else:
            tid = 0
            scope = "p"
        args = {"severity": rec.severity, "seq": rec.seq}
        if rec.trace_id is not None:
            args["trace_id"] = f"{rec.trace_id:x}"
        for key, value in rec.fields.items():
            args[str(key)] = value if isinstance(
                value, (int, float, bool)) else str(value)
        events.append({
            "name": f"{rec.component}:{rec.event}",
            "cat": "flightrec",
            "ph": "i",
            "s": scope,
            "ts": round(rec.time * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    metadata = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                 "args": {"name": row}} for row, pid in pids.items()]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[SpanRecord],
                       records: Optional[Iterable[Any]] = None) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    document = to_chrome_trace(spans, records=records)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")
    return len(document["traceEvents"])
