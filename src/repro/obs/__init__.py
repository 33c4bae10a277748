"""Observability: procedure tracing, trace analysis, and export.

The missing piece between each AGW's check-in metrics and the
orchestrator's :class:`~repro.core.orchestrator.metricsd.Metricsd`:
end-to-end traces of control-plane procedures (attach, paging, handover,
checkpoint/restore, state sync) with deterministic ids and virtual-clock
timestamps.  Critical-path analysis (:mod:`repro.obs.analysis`),
Chrome-trace export (:mod:`repro.obs.export`), the self-profiler
(:mod:`repro.obs.profiler`) and the traced demo (``python -m repro.obs``)
are imported from their own modules: a run that only traces loads none
of them.
"""

from .flightrec import (
    FlightRecorder,
    LogRecord,
    NodeLog,
)
from .health import HealthEngine
from .tracing import (
    NOOP_SPAN,
    NoopSpan,
    Span,
    SpanContext,
    SpanRecord,
    Tracer,
)

__all__ = [
    "NOOP_SPAN",
    "FlightRecorder",
    "HealthEngine",
    "LogRecord",
    "NodeLog",
    "NoopSpan",
    "Span",
    "SpanContext",
    "SpanRecord",
    "Tracer",
]
