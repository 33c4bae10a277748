"""Cost of observing, as call counts.

Tracer and flight recorder stay on for the whole ``fleet_e2e`` run, so
what one span and one log record cost is the price of observation
(README, "Observability").  Like the other ``*_cost.py`` tests the checks
count executed calls under ``cProfile`` - the benchmark's ``host_calls``
counter - so they are deterministic.  The budgets are the counts of the
code as it stands: a span or a record that grows a call fails here.
"""

from repro.obs.flightrec import FlightRecorder
from repro.obs.tracing import NOOP_SPAN, Tracer, tracer_of
from repro.sim import RngRegistry, Simulator

from costs import counted


def test_a_child_span_costs_eleven_calls_to_open_and_close():
    sim = Simulator()
    tracer = Tracer(sim, RngRegistry(1))
    with tracer.start_trace("attach", component="ue").active():
        span, opened = counted(tracer.child, "mme.auth", component="mme",
                               node="agw-1", tags={"imsi": "001010000000001"})
        _, closed = counted(span.end)
    assert span.recording and span.finished
    # 9 to open: child -> start_span -> Span(), the span id, the clock,
    # the record and its append; 2 to close (end and the clock).
    assert opened + closed <= 11


def test_a_span_with_no_ambient_context_costs_three_calls():
    sim = Simulator()
    tracer = Tracer(sim, RngRegistry(1))
    span, opened = counted(tracer.child, "mme.auth", component="mme")
    _, closed = counted(span.end)
    assert span is NOOP_SPAN
    assert opened + closed <= 3
    # With no tracer installed the shared no-op answers in one call.
    span, opened = counted(tracer_of(Simulator()).child, "mme.auth")
    assert span is NOOP_SPAN and opened <= 1


def test_a_log_record_costs_seven_calls():
    sim = Simulator()
    log = FlightRecorder(sim, capacity=4).node("agw-1")
    for index in range(4):
        log.info("mme", "attach", n=index)      # a full ring: drops count
    record, cost = counted(log.info, "mme", "attach", imsi="001010000000001")
    assert record.fields == {"imsi": "001010000000001"}
    # info -> log -> the sequence number, the clock, LogRecord(), the
    # ring's length and its append.
    assert cost <= 7
