"""Observability: procedure tracing, trace analysis, and export.

The missing piece between each AGW's check-in metrics and the
orchestrator's :class:`~repro.core.orchestrator.metricsd.Metricsd`:
end-to-end traces of control-plane procedures (attach, paging, handover,
checkpoint/restore, state sync) with deterministic ids and virtual-clock
timestamps, plus critical-path analysis and Chrome-trace export.

``scenario``/``cli`` are imported lazily (they pull in the full AGW stack);
``python -m repro.obs`` runs the traced demo.
"""

from .analysis import (
    TraceView,
    aggregate_breakdown,
    build_traces,
    format_summary,
    procedure_summary,
)
from .export import to_chrome_trace, write_chrome_trace
from .flightrec import (
    FlightRecorder,
    LogRecord,
    NodeLog,
)
from .health import HealthEngine
from .profiler import Profiler
from .tracing import (
    NOOP_SPAN,
    NOOP_TRACER,
    NoopSpan,
    NoopTracer,
    Span,
    SpanContext,
    SpanRecord,
    Tracer,
    tracer_of,
)

__all__ = [
    "NOOP_SPAN",
    "NOOP_TRACER",
    "FlightRecorder",
    "HealthEngine",
    "LogRecord",
    "NodeLog",
    "NoopSpan",
    "NoopTracer",
    "Profiler",
    "Span",
    "SpanContext",
    "SpanRecord",
    "TraceView",
    "Tracer",
    "aggregate_breakdown",
    "build_traces",
    "format_summary",
    "procedure_summary",
    "to_chrome_trace",
    "tracer_of",
    "write_chrome_trace",
]
