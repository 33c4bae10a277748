"""Flight recorder: per-node bounded ring buffers of structured events.

Magma's AGWs run at the edge with intermittent backhaul, so the paper's
operational answer to "what happened just before the failure?" cannot be
a centralized log pipeline — it is a small always-on ring of the last N
structured events per node, cheap enough to leave enabled and snapshotted
automatically the moment something goes wrong (a SimSan report, an alert
firing, a crash/restore).

Design mirrors the SimSan enable/disable philosophy:

- **Disabled is the default and costs nothing.**  Components read
  ``sim.recorder`` (a kernel slot, ``None`` unless a
  :class:`FlightRecorder` installed itself) and skip logging entirely —
  one attribute load and an ``is not None`` test on the cold side of hot
  paths.
- **Records are printf-free.**  A :class:`LogRecord` carries sim-time,
  severity, component, node, an event name, and key/value fields — no
  format strings, so exporting to JSONL / Chrome-trace needs no parsing.
- **Trace correlation is ambient.**  At log time the recorder reads
  ``sim.ctx`` (the tracer's ambient span context); records emitted inside
  a traced procedure automatically carry its trace/span ids, linking ring
  contents to spans in the merged Chrome trace.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

SEVERITIES = ("debug", "info", "warn", "error")
#: Records each node's ring keeps.
RING_CAPACITY = 256
#: Newest records (across all nodes, by global sequence) a snapshot keeps.
SNAPSHOT_TAIL = 32
#: Snapshots kept (oldest dropped), so a report storm cannot grow memory
#: without bound.
MAX_SNAPSHOTS = 64


class LogRecord:
    """One structured event. Immutable by convention; slots keep it small."""

    __slots__ = ("seq", "time", "severity", "component", "node", "event",
                 "trace_id", "span_id", "fields")

    def __init__(self, seq: int, time: float, severity: str, component: str,
                 node: str, event: str, trace_id: Optional[int],
                 span_id: Optional[int], fields: Dict[str, Any]):
        self.seq = seq
        self.time = time
        self.severity = severity
        self.component = component
        self.node = node
        self.event = event
        self.trace_id = trace_id
        self.span_id = span_id
        self.fields = fields

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "severity": self.severity,
            "component": self.component,
            "node": self.node,
            "event": self.event,
        }
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
        if self.fields:
            out["fields"] = self.fields
        return out

    def __repr__(self) -> str:
        return (f"<LogRecord #{self.seq} t={self.time:.4f} {self.severity} "
                f"{self.node}/{self.component} {self.event}>")


class NodeLog:
    """A bounded ring of records for one node (deque with maxlen)."""

    __slots__ = ("_rec", "node", "records")

    def __init__(self, rec: "FlightRecorder", node: str):
        self._rec = rec
        self.node = node
        self.records: deque = deque(maxlen=RING_CAPACITY)

    def log(self, severity: str, component: str, event: str,
            **fields: Any) -> LogRecord:
        rec = self._rec
        sim = rec.sim
        ctx = sim.ctx
        record = LogRecord(
            seq=rec._next_seq(),
            time=sim.now,
            severity=severity,
            component=component,
            node=self.node,
            event=event,
            trace_id=ctx.trace_id if ctx is not None else None,
            span_id=ctx.span_id if ctx is not None else None,
            fields=fields,
        )
        ring = self.records
        if len(ring) == ring.maxlen:
            rec.stats["dropped"] += 1
        ring.append(record)
        rec.stats["records"] += 1
        return record

    def debug(self, component: str, event: str, **fields: Any) -> LogRecord:
        return self.log("debug", component, event, **fields)

    def info(self, component: str, event: str, **fields: Any) -> LogRecord:
        return self.log("info", component, event, **fields)

    def warn(self, component: str, event: str, **fields: Any) -> LogRecord:
        return self.log("warn", component, event, **fields)

    def error(self, component: str, event: str, **fields: Any) -> LogRecord:
        return self.log("error", component, event, **fields)


class FlightRecorder:
    """Per-node bounded rings plus failure snapshots; installs itself as
    ``sim.recorder``."""

    def __init__(self, sim):
        self.sim = sim
        self.snapshots: deque = deque(maxlen=MAX_SNAPSHOTS)
        self.stats = {"records": 0, "dropped": 0, "snapshots": 0}
        self._nodes: Dict[str, NodeLog] = {}
        self._seq = 0
        sim.recorder = self

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def node(self, name: str) -> NodeLog:
        log = self._nodes.get(name)
        if log is None:
            log = NodeLog(self, name)
            self._nodes[name] = log
        return log

    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def records(self, node: Optional[str] = None,
                severity: Optional[str] = None) -> List[LogRecord]:
        """Retained records in global emission order (by sequence)."""
        if node is not None:
            out: Iterable[LogRecord] = self._nodes[node].records \
                if node in self._nodes else ()
        else:
            merged: List[LogRecord] = []
            for log in self._nodes.values():
                merged.extend(log.records)
            merged.sort(key=lambda r: r.seq)
            out = merged
        if severity is not None:
            floor = SEVERITIES.index(severity)
            return [r for r in out if SEVERITIES.index(r.severity) >= floor]
        return list(out)

    def snapshot(self, reason: str,
                 node: Optional[str] = None) -> Dict[str, Any]:
        """Freeze the newest ``SNAPSHOT_TAIL`` records under a reason tag.

        Called automatically on SimSan reports, alert firings, and
        gateway crash/restore, so every failure ships its last-N-events
        context without anyone having to remember to dump the rings.
        """
        tail = self.records(node=node)[-SNAPSHOT_TAIL:]
        snap = {
            "reason": reason,
            "time": self.sim.now,
            "node": node,
            "records": [r.as_dict() for r in tail],
        }
        self.snapshots.append(snap)
        self.stats["snapshots"] += 1
        return snap

    # -- export ----------------------------------------------------------------

    def to_jsonl(self) -> str:
        """All retained records, one JSON object per line, then snapshots."""
        lines = [json.dumps(r.as_dict(), sort_keys=True)
                 for r in self.records()]
        for snap in self.snapshots:
            lines.append(json.dumps({"snapshot": snap}, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def dump_jsonl(self, path: str) -> int:
        """Write :meth:`to_jsonl` to ``path``; returns the record count."""
        text = self.to_jsonl()
        with open(path, "w") as fh:
            fh.write(text)
        return self.stats["records"] - self.stats["dropped"]
