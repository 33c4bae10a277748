"""Procedure tracing for the simulated Magma stack.

Distributed tracing in the style of OpenTelemetry/Dapper, adapted to the
discrete-event kernel: a :class:`Tracer` mints spans whose timestamps come
from the virtual clock (``sim.now``) and whose ids come from named RNG
streams, so traces are fully deterministic and replayable (REPRO201/202).

Context propagation is *ambient*: the kernel carries the active
:class:`SpanContext` across ``schedule()`` hops and generator resumes
(``Simulator.ctx``), and the RPC layer ships it inside request payloads, so
a single attach trace nests UE -> eNodeB -> MME -> sessiond -> pipelined
without any of those components passing trace arguments around.

Cost model: with no tracer installed (``sim.tracer is None``) instrumented
code reads ``sim.tracer`` and takes :data:`NOOP_SPAN` without a call; with
a tracer installed but ``sample_rate=0`` every root span is the shared
:data:`NOOP_SPAN` and no child spans are created downstream.  A recorded
span is kept as one ten-slot row of the tracer's flat row store: no
object, and no tags dict of its own until it is tagged (an RPC client
span shares its channel's read-only tags).  :attr:`Tracer.spans` builds
immutable :class:`SpanRecord` copies of the rows when it is read.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional

# 48-bit ids: unique enough for any run, exactly representable in JSON.
_ID_BITS = 48
#: Spans a tracer keeps; later ones are counted as dropped.
MAX_SPANS = 200_000

# A span's row: ``_STRIDE`` consecutive slots of ``Tracer._rows``, at these
# offsets.  ``_TAGS`` holds None until the span has a tag.
(_TRACE_ID, _SPAN_ID, _PARENT_ID, _NAME, _COMPONENT, _NODE, _START, _END,
 _STATUS, _TAGS) = range(10)
_STRIDE = 10

#: The tags every untagged span reads.
_NO_TAGS: Mapping[str, Any] = MappingProxyType({})


class SpanContext(NamedTuple):
    """The propagated part of a span: enough to parent children to it."""

    trace_id: int
    span_id: int


_new_tuple = tuple.__new__


class SpanRecord(NamedTuple):
    """One recorded span as :attr:`Tracer.spans` returns it: an immutable
    copy of its row, ``tags`` a read-only view."""

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    component: str
    node: str
    start: float
    end_time: Optional[float]
    status: str
    tags: Mapping[str, Any]

    @property
    def context(self) -> SpanContext:
        return _new_tuple(SpanContext, (self.trace_id, self.span_id))

    @property
    def duration(self) -> float:
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start

    @property
    def finished(self) -> bool:
        return self.end_time is not None


class _Activation:
    """Context manager that makes a span ambient without ending it."""

    __slots__ = ("span", "_prev")

    def __init__(self, span: "Span"):
        self.span = span
        self._prev = None

    def __enter__(self) -> "Span":
        sim = self.span.tracer.sim
        self._prev = sim.ctx
        sim.ctx = self.span.context
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.tracer.sim.ctx = self._prev
        return False


def _column(offset: int) -> property:
    """Read-only property over one field of a :class:`Span`'s row."""
    return property(lambda span: span._row[span._at + offset])


class Span:
    """Handle on one timed operation within a trace.

    Opening a span appends its row to the tracer's row store; the handle
    reads and writes that row and is dropped by whoever opened it, so a
    recorded span costs its row and no object.  A span past
    :data:`MAX_SPANS` is not stored and works on a private row instead.
    The span is closed by :meth:`end` (directly, via the context-manager
    protocol, or when an event triggers with :meth:`end_on`).
    ``start``/``end_time`` are virtual-clock seconds; ``end_time`` is None
    while the span is open.
    """

    __slots__ = ("tracer", "_row", "_at", "_prev_ctx")

    recording = True

    def __init__(self, tracer: "Tracer", parent: Optional[SpanContext],
                 name: str, component: str, node: str,
                 tags: Optional[Mapping[str, Any]] = None):
        """Open a child of ``parent``, or a new trace's root when it is
        None, and record it.  The one body behind every way to open a
        span: ids drawn and the row appended inline, on the hot path.

        ``tags`` is copied, unless it is a read-only ``MappingProxyType``:
        that one is kept as given and shared, and :meth:`set_tag` copies
        it on the first write."""
        ids = tracer._ids
        if parent is None:
            trace_id = ids.getrandbits(_ID_BITS)
            parent_id = None
        else:
            trace_id, parent_id = parent
        if not tags:
            tags = None
        elif tags.__class__ is not MappingProxyType:
            tags = dict(tags)
        row = (trace_id, ids.getrandbits(_ID_BITS), parent_id, name,
               component, node, tracer.sim.now, None, "open", tags)
        self.tracer = tracer
        self._prev_ctx = None
        stats = tracer.stats
        kept = stats["spans"]
        if kept < MAX_SPANS:
            # The kept count is the row's index and ``+=`` appends it:
            # no len() or append() call per span.
            rows = self._row = tracer._rows
            self._at = kept * _STRIDE
            rows += row
            stats["spans"] = kept + 1
        else:
            self._row = list(row)
            self._at = 0
            stats["spans_dropped"] += 1

    trace_id = _column(_TRACE_ID)
    span_id = _column(_SPAN_ID)
    parent_id = _column(_PARENT_ID)
    name = _column(_NAME)
    component = _column(_COMPONENT)
    node = _column(_NODE)
    start = _column(_START)
    end_time = _column(_END)
    status = _column(_STATUS)

    @property
    def tags(self) -> Mapping[str, Any]:
        tags = self._row[self._at + _TAGS]
        return _NO_TAGS if tags is None else MappingProxyType(tags)

    @property
    def context(self) -> SpanContext:
        row, at = self._row, self._at
        # tuple.__new__ skips the namedtuple's generated __new__ frame.
        return _new_tuple(SpanContext, (row[at], row[at + _SPAN_ID]))

    @property
    def duration(self) -> float:
        row, at = self._row, self._at
        if row[at + _END] is None:
            return 0.0
        return row[at + _END] - row[at + _START]

    @property
    def finished(self) -> bool:
        return self._row[self._at + _END] is not None

    def set_tag(self, key: str, value: Any) -> "Span":
        row, at = self._row, self._at + _TAGS
        tags = row[at]
        if tags is None:
            row[at] = {key: value}
        else:
            if tags.__class__ is MappingProxyType:  # shared: copy to own
                row[at] = tags = dict(tags)
            tags[key] = value
        return self

    def end(self, status: str = "ok") -> None:
        """Close the span at the current virtual time (idempotent)."""
        row, at = self._row, self._at
        if row[at + _END] is None:
            row[at + _END] = self.tracer.sim.now
            row[at + _STATUS] = status

    def end_on(self, event: Any,
               ok: Optional[Callable[[Any], bool]] = None) -> "Span":
        """Close the span when ``event`` triggers, at the trigger's instant:
        "ok" if ``ok(event)`` (by default, if the event succeeded), else
        "error".  The close is an event watcher, so it takes no kernel
        entry."""
        if ok is None:
            event.watch(self._end_by_outcome)
        else:
            event.watch(lambda ev: self.end("ok" if ok(ev) else "error"))
        return self

    def _end_by_outcome(self, event: Any) -> None:
        # end()'s body inline: the watcher behind most closed spans.
        row, at = self._row, self._at
        if row[at + _END] is None:
            row[at + _END] = self.tracer.sim.now
            row[at + _STATUS] = "ok" if event.ok else "error"

    def active(self) -> _Activation:
        """``with span.active():`` - ambient activation without ending."""
        return _Activation(self)

    # ``with span:`` activates the span and ends it on exit.

    def __enter__(self) -> "Span":
        sim = self.tracer.sim
        self._prev_ctx = sim.ctx
        sim.ctx = self.context
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.tracer.sim.ctx = self._prev_ctx
        self.end("error" if exc_type is not None else "ok")
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.4f}s" if self.finished else "open"
        return f"<Span {self.name!r} {self.component} {state}>"


class NoopSpan:
    """Shared do-nothing span: the unsampled / tracing-off fast path.

    Its ``context`` is None, so children of an unsampled root are
    themselves no-ops and nothing propagates downstream.
    """

    __slots__ = ()

    recording = False
    context = None
    trace_id = None
    span_id = None
    parent_id = None
    name = ""
    component = ""
    node = ""
    start = 0.0
    end_time = None
    duration = 0.0
    finished = False
    status = "noop"
    tags: Dict[str, Any] = {}

    def set_tag(self, key: str, value: Any) -> "NoopSpan":
        return self

    def end(self, status: str = "ok") -> None:
        pass

    def end_on(self, event: Any,
               ok: Optional[Callable[[Any], bool]] = None) -> "NoopSpan":
        return self

    def active(self) -> "NoopSpan":
        return self

    def __enter__(self) -> "NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = NoopSpan()


class Tracer:
    """Mints, samples, and records spans for one simulation.

    ``sample_rate`` is the fraction of *root* spans recorded (head-based
    sampling: the decision is made once per trace and inherited by every
    child through context propagation).  Ids come from the registry's
    ``obs.span_ids`` / ``obs.sampling`` streams, timestamps from
    ``sim.now`` - two runs with the same seed produce identical traces.
    """

    def __init__(self, sim: Any, rng: Any, sample_rate: float = 1.0):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate out of range: {sample_rate}")
        self.sim = sim
        self.sample_rate = sample_rate
        self._ids = rng.stream("obs.span_ids")
        self._sampler = rng.stream("obs.sampling")
        # Every recorded span's row, in open order (see :class:`Span`).
        self._rows: List[Any] = []
        self.stats = {"traces_started": 0, "traces_sampled": 0,
                      "spans": 0, "spans_dropped": 0}
        sim.tracer = self

    # -- span creation -----------------------------------------------------

    def start_trace(self, name: str, component: str = "", node: str = "",
                    tags: Optional[Dict[str, Any]] = None):
        """Start a new root span, applying the sampling decision."""
        self.stats["traces_started"] += 1
        if self.sample_rate <= 0.0:
            return NOOP_SPAN
        if self.sample_rate < 1.0 and \
                self._sampler.random() >= self.sample_rate:
            return NOOP_SPAN
        self.stats["traces_sampled"] += 1
        return Span(self, None, name, component, node, tags)

    def child(self, name: str, component: str = "", node: str = "",
              tags: Optional[Dict[str, Any]] = None):
        """Child of the ambient context; no-op when none is active."""
        parent = self.sim.ctx
        if parent is None:
            return NOOP_SPAN
        return Span(self, parent, name, component, node, tags)

    def begin(self, name: str, component: str = "", node: str = "",
              tags: Optional[Dict[str, Any]] = None):
        """Child of the ambient context if present, else a new root.

        The right call for procedure entry points that can be either
        user-initiated (a fresh trace) or network-initiated mid-trace
        (e.g. a service request triggered by paging).
        """
        parent = self.sim.ctx
        if parent is not None:
            return Span(self, parent, name, component, node, tags)
        return self.start_trace(name, component=component, node=node,
                                tags=tags)

    # -- accessors ---------------------------------------------------------

    @property
    def spans(self) -> List[SpanRecord]:
        """Every recorded span, in open order, as it stands now."""
        rows = self._rows
        records = []
        for at in range(0, len(rows), _STRIDE):
            row = rows[at:at + _STRIDE]
            tags = row[_TAGS]
            row[_TAGS] = _NO_TAGS if tags is None else MappingProxyType(tags)
            records.append(_new_tuple(SpanRecord, row))
        return records
