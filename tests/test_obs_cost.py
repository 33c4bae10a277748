"""Cost of observing, as call counts and kernel entries.

Tracer and flight recorder stay on for the whole ``fleet_e2e`` run, so
what one span and one log record cost is the price of observation
(README, "Observability").  Like the other ``*_cost.py`` tests the checks
count executed calls under ``cProfile`` - the benchmark's ``host_calls``
counter - and kernel entries by the kernel's sequence counter, so they
are deterministic.  The budgets are the counts of the code as it stands:
a span or a record that grows a call, or a span whose close takes a
kernel entry, fails here.
"""

from repro.net import Link, Network, RpcChannel, RpcServer
from repro.obs import flightrec
from repro.obs.flightrec import FlightRecorder
from repro.obs.tracing import NOOP_SPAN, Tracer, tracer_of
from repro.sim import RngRegistry, Simulator

from costs import counted, entries_scheduled


def test_a_child_span_costs_eight_calls_to_open_and_close():
    sim = Simulator()
    tracer = Tracer(sim, RngRegistry(1))
    with tracer.start_trace("attach", component="ue").active():
        span, opened = counted(tracer.child, "mme.auth", component="mme",
                               node="agw-1", tags={"imsi": "001010000000001"})
        _, closed = counted(span.end)
    assert span.recording and span.finished
    # 6 to open: child -> Span(), the span id, the clock, the record's
    # length and its append; 2 to close (end and the clock).
    assert opened + closed <= 8


def test_closing_a_span_on_an_event_schedules_no_kernel_entry():
    sim = Simulator()
    tracer = Tracer(sim, RngRegistry(1))
    root = tracer.start_trace("attach", component="ue")
    pending, fired = sim.event("pending"), sim.event("fired")
    fired.succeed("done")
    start = entries_scheduled(sim)
    with root.active():
        on_pending = tracer.child("wait").end_on(pending)
        on_fired = tracer.child("done").end_on(fired)
    sim.run(until=2.0)
    pending.fail(RuntimeError("lost"))
    # No entry between the probes: each close ran inline at its trigger
    # (one scheduled callback per span when a callback closed it).
    assert entries_scheduled(sim) - start == 1
    assert (on_fired.status, on_fired.end_time) == ("ok", 0.0)
    assert (on_pending.status, on_pending.end_time) == ("error", 2.0)


def test_a_traced_rpc_round_trip_schedules_as_many_entries_as_an_untraced_one():
    def round_trip_entries(traced):
        sim = Simulator()
        rng = RngRegistry(3)
        net = Network(sim, rng)
        net.connect("client", "server", Link(latency=0.001))
        server = RpcServer(sim, net, "server")
        server.register("svc", "echo", lambda request: request)
        channel = RpcChannel(sim, net, "client", "server")
        root = NOOP_SPAN
        if traced:
            root = Tracer(sim, rng).start_trace("attach", component="ue")
        start = entries_scheduled(sim)
        with root.active():
            done = channel.call("svc", "echo", "ping")
        assert sim.run_until_triggered(done) == "ping"
        if traced:
            client, handler = sim.tracer.spans[1:]
            assert client.finished and handler.finished
        return entries_scheduled(sim) - start

    assert round_trip_entries(traced=True) == round_trip_entries(traced=False)


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


def test_a_log_record_costs_seven_calls(monkeypatch):
    monkeypatch.setattr(flightrec, "RING_CAPACITY", 4)
    sim = Simulator()
    log = FlightRecorder(sim).node("agw-1")
    for index in range(4):
        log.info("mme", "attach", n=index)      # a full ring: drops count
    record, cost = counted(log.info, "mme", "attach", imsi="001010000000001")
    assert record.fields == {"imsi": "001010000000001"}
    # info -> log -> the sequence number, the clock, LogRecord(), the
    # ring's length and its append.
    assert cost <= 7
