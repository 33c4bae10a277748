"""Cost of observing, as call counts, kernel entries and bytes kept.

Tracer and flight recorder stay on for the whole ``fleet_e2e`` run, so
what one span and one log record cost is the price of observation
(README, "Observability").  Like the other ``*_cost.py`` tests the checks
count executed calls under ``cProfile`` - the benchmark's ``host_calls``
counter - and kernel entries by the kernel's sequence counter, so they
are deterministic.  The budgets are the counts of the code as it stands:
a span or a record that grows a call, or a span whose close takes a
kernel entry, fails here.  Memory is measured with ``tracemalloc``: what
a finished span keeps, what an RPC server keeps once its callers'
deadlines have passed, each against the store that kept an object per
span and every reply.  A Chrome export of one seeded run is pinned byte
for byte, so a change to how spans are stored cannot reorder it.
"""

import gc
import hashlib
import json
import tracemalloc

from repro.deploy import build
from repro.net import Link, Network, RpcChannel, RpcServer
from repro.obs import flightrec, tracing
from repro.obs.export import to_chrome_trace
from repro.obs.flightrec import FlightRecorder
from repro.obs.scenario import run_traced_attach_storm
from repro.obs.tracing import NOOP_SPAN, NoopSpan, Tracer
from repro.sim import RngRegistry, Simulator

from costs import counted, entries_scheduled, profiled


def test_a_child_span_costs_eight_calls_to_open_and_close():
    sim = Simulator()
    tracer = Tracer(sim, RngRegistry(1))
    with tracer.start_trace("attach", component="ue").active():
        span, opened = counted(tracer.child, "mme.auth", component="mme",
                               node="agw-1", tags={"imsi": "001010000000001"})
        _, closed = counted(span.end)
    assert span.recording and span.finished
    # 4 to open: child -> Span(), the span id and the clock (the row is
    # appended by ``+=``, and the kept count read from the stats); 2 to
    # close (end and the clock).  The budget is the 8 a span cost when
    # it was an object with its own record, so it is 2 to spare.
    assert opened + closed <= 8


#: Bytes a finished, untagged child span may keep: its ten-slot row and
#: the span id and end time it alone holds.  A span kept as an object
#: with its own (empty) tags dict kept about 257.
SPAN_BYTES_BUDGET = 160


def test_a_finished_child_span_keeps_its_row_and_no_more():
    sim = Simulator()
    tracer = Tracer(sim, RngRegistry(1))

    def spans(count):
        for _ in range(count):
            span = tracer.child("mme.auth", component="mme", node="agw-1")
            sim.run(until=sim.now + 0.001)
            span.end()

    with tracer.start_trace("attach", component="ue").active():
        spans(50)                       # warm: names, the clock, the rows
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            spans(2_000)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert kept / 2_000 <= SPAN_BYTES_BUDGET
    assert tracer.stats["spans"] == 2_051
    assert all(span.finished for span in tracer.spans[1:])


#: Bytes an RPC round trip may keep once it is over: the rows of its
#: client and server spans.  The client span's peer tag is its channel's
#: one read-only mapping; with a fresh ``{"peer": ...}`` dict per client
#: span a round trip kept about 520.
RPC_ROUND_TRIP_SPAN_BYTES_BUDGET = 360


def test_a_tagged_rpc_client_span_keeps_no_tags_of_its_own():
    sim = Simulator()
    tracer = Tracer(sim, RngRegistry(1))
    net = Network(sim, RngRegistry(1))
    net.connect("client", "server", Link(latency=0.001))
    RpcServer(sim, net, "server").register("svc", "echo", lambda r: r)
    channel = RpcChannel(sim, net, "client", "server")

    def round_trips(count):
        for index in range(count):
            channel.call("svc", "echo", index, deadline=1.0)
            sim.run(until=sim.now + 0.01)
        sim.run(until=sim.now + 2.0)                # every deadline passes
        channel.call("svc", "echo", "last", deadline=1.0)
        sim.run(until=sim.now + 0.1)

    with tracer.start_trace("calls", component="test").active():
        round_trips(50)                 # warm: names, the clock, the rows
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            round_trips(1_000)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert kept / 1_001 <= RPC_ROUND_TRIP_SPAN_BYTES_BUDGET
    assert tracer.stats["spans"] == 1 + 2 * 1_052
    assert all(span.tags == {"peer": "server"} for span in tracer.spans
               if span.component == "rpc")


#: Bytes an RPC server may keep per call once every caller's deadline
#: has passed: what remains is its reply table sized for the busiest
#: deadline's worth of calls (about 100 here), not the replies.  A cache
#: that kept every reply up to 10,000 kept about 200 per call.
EXPIRED_CALL_BYTES_BUDGET = 24


def test_an_rpc_server_keeps_no_reply_past_its_callers_deadline():
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    net.connect("client", "server", Link(latency=0.001))
    server = RpcServer(sim, net, "server")
    server.register("svc", "echo", lambda request: request)
    channel = RpcChannel(sim, net, "client", "server")
    channel.call("svc", "echo", "warm", deadline=1.0)
    sim.run(until=sim.now + 0.1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(1_000):                  # 10 s of calls
            channel.call("svc", "echo", index, deadline=1.0)
            sim.run(until=sim.now + 0.01)
        sim.run(until=sim.now + 2.0)                # every deadline passes
        channel.call("svc", "echo", "last", deadline=1.0)
        sim.run(until=sim.now + 0.1)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept / 1_000 <= EXPIRED_CALL_BYTES_BUDGET
    assert server.stats["requests"] == 1_002
    assert len(server._response_cache) == 1


#: sha256 of the Chrome export (``indent=1``, as ``python -m repro.obs``
#: writes it) of the CI's traced attach storm, taken from the tracer that
#: kept one object per span.
CHROME_TRACE_DIGEST = ("a46d9b2157ee35db2a0e47aae0433ec2"
                       "af53423f2fb4a10771dc2fdcea3dfbbf")


def test_the_chrome_export_of_a_seeded_storm_is_byte_identical():
    run = run_traced_attach_storm(num_ues=10, rate=5.0, seed=3)
    document = to_chrome_trace(run.tracer.spans,
                               records=run.site.sim.recorder.records())
    text = json.dumps(document, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == CHROME_TRACE_DIGEST


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


def test_with_tracing_off_no_span_site_calls_to_find_the_tracer():
    # Every span site reads ``sim.tracer`` and takes NOOP_SPAN when it is
    # None, so with no tracer installed an LTE attach-detach and a WiFi
    # connect-disconnect run no ``tracer`` property or lookup helper, and
    # no code of ``obs.tracing`` but the shared no-op span's methods.
    site = build(num_ues=2, rats=("wifi",))
    sim = site.sim

    def cycle():
        ue = site.ues[0]
        sim.run_until_triggered(ue.attach(), limit=sim.now + 60.0)
        sim.run_until_triggered(ue.detach(), limit=sim.now + 60.0)
        ap = site.aps[0]
        imsi = site.imsis[1]
        sim.run_until_triggered(ap.connect(imsi, f"wifi-{imsi}"),
                                limit=sim.now + 60.0)
        ap.disconnect(imsi)
        sim.run(until=sim.now + 2.0)

    assert sim.tracer is None
    _, entries = profiled(cycle)
    noop_span = {member.__code__ for member in vars(NoopSpan).values()
                 if hasattr(member, "__code__")}
    codes = [entry.code for entry in entries
             if not isinstance(entry.code, str)]
    assert [code for code in codes
            if code.co_name in ("tracer", "tracer_of")
            or (code.co_filename == tracing.__file__
                and code not in noop_span)] == []
    assert any(code in noop_span for code in codes)


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
