"""Unit tests for the gRPC-substitute RPC layer."""

import pytest

from repro.net import Link, Network, RpcChannel, RpcError, RpcServer
from repro.sim import RngRegistry, Simulator


def build(loss=0.0, latency=0.01, seed=1):
    sim = Simulator()
    net = Network(sim, RngRegistry(seed))
    net.connect("client", "server", Link(latency=latency, loss=loss))
    server = RpcServer(sim, net, "server")
    channel = RpcChannel(sim, net, "client", "server")
    return sim, net, server, channel


def call(sim, channel, service, method, request, **kwargs):
    """Run a single RPC to completion and return (ok, value)."""
    outcome = {}

    def caller(sim):
        try:
            resp = yield channel.call(service, method, request, **kwargs)
            outcome["ok"] = resp
        except RpcError as exc:
            outcome["err"] = exc

    sim.spawn(caller(sim))
    sim.run(until=sim.now + 300.0)
    return outcome


def test_plain_handler_roundtrip():
    sim, net, server, channel = build()
    server.register("subscriberdb", "get", lambda req: {"imsi": req["imsi"], "ok": True})
    outcome = call(sim, channel, "subscriberdb", "get", {"imsi": "001010000000001"})
    assert outcome["ok"]["ok"] is True


def test_generator_handler_takes_sim_time():
    sim, net, server, channel = build()

    def slow_handler(req):
        yield sim.timeout(1.0)
        return "done"

    server.register("svc", "slow", slow_handler)
    outcome = call(sim, channel, "svc", "slow", None)
    assert outcome["ok"] == "done"
    assert sim.now >= 1.0


def test_not_found_error():
    sim, net, server, channel = build()
    outcome = call(sim, channel, "nope", "missing", None)
    assert outcome["err"].code == RpcError.NOT_FOUND


def test_handler_exception_becomes_internal():
    sim, net, server, channel = build()
    server.register("svc", "boom", lambda req: 1 / 0)
    outcome = call(sim, channel, "svc", "boom", None)
    assert outcome["err"].code == RpcError.INTERNAL


def test_handler_rpc_error_passes_through():
    sim, net, server, channel = build()

    def denied(req):
        raise RpcError(RpcError.PERMISSION_DENIED, "no")

    server.register("svc", "denied", denied)
    outcome = call(sim, channel, "svc", "denied", None)
    assert outcome["err"].code == RpcError.PERMISSION_DENIED


def test_generator_handler_rpc_error():
    sim, net, server, channel = build()

    def gen_denied(req):
        yield sim.timeout(0.1)
        raise RpcError(RpcError.FAILED_PRECONDITION, "not ready")

    server.register("svc", "gen_denied", gen_denied)
    outcome = call(sim, channel, "svc", "gen_denied", None)
    assert outcome["err"].code == RpcError.FAILED_PRECONDITION


def test_deadline_exceeded_when_server_down():
    sim, net, server, channel = build()
    server.register("svc", "m", lambda req: "ok")
    net.set_node_up("server", False)
    outcome = call(sim, channel, "svc", "m", None, deadline=2.0)
    assert outcome["err"].code == RpcError.DEADLINE_EXCEEDED
    assert sim.now >= 2.0
    # A co-located call to the crashed node times out the same way.
    local = RpcChannel(sim, net, "server", "server")
    outcome = call(sim, local, "svc", "m", None, deadline=2.0)
    assert outcome["err"].code == RpcError.DEADLINE_EXCEEDED
    assert local.stats["deadline_exceeded"] == 1


def test_rpc_survives_heavy_loss_via_retries():
    """The §3.1 argument: RPC-with-retries tolerates lossy backhaul."""
    sim, net, server, channel = build(loss=0.4, seed=9)
    server.register("svc", "m", lambda req: req * 2)
    outcome = call(sim, channel, "svc", "m", 21, deadline=30.0)
    assert outcome["ok"] == 42
    assert channel.stats["retries"] > 0 or channel.stats["ok"] == 1


def test_retried_request_dispatched_once():
    """Server-side dedup: heavy retry must not run the handler twice."""
    sim, net, server, channel = build(loss=0.5, seed=13)
    calls = []

    def handler(req):
        calls.append(req)
        return "ok"

    server.register("svc", "once", handler)
    outcome = call(sim, channel, "svc", "once", "x", deadline=60.0)
    assert outcome["ok"] == "ok"
    assert len(calls) == 1


def test_many_concurrent_calls():
    sim, net, server, channel = build()
    server.register("svc", "echo", lambda req: req)
    results = []

    def caller(sim, i):
        resp = yield channel.call("svc", "echo", i)
        results.append(resp)

    for i in range(50):
        sim.spawn(caller(sim, i))
    sim.run()
    assert sorted(results) == list(range(50))


def test_duplicate_registration_rejected():
    sim, net, server, channel = build()
    server.register("svc", "m", lambda r: None)
    with pytest.raises(ValueError):
        server.register("svc", "m", lambda r: None)


def test_interceptor_wraps_the_registered_handler():
    sim, net, server, channel = build()
    server.register("svc", "m", lambda r: r + 1)
    seen = []

    def interceptor(request, handler):
        response = handler(request)
        seen.append((request, response))
        return response * 10

    server.intercept("svc", "m", interceptor)
    assert call(sim, channel, "svc", "m", 1)["ok"] == 20
    assert seen == [(1, 2)]
    with pytest.raises(KeyError):
        server.intercept("svc", "missing", interceptor)


def test_channel_close_fails_pending():
    sim, net, server, channel = build()

    def never(req):
        yield sim.timeout(1e9)

    server.register("svc", "never", never)
    errors = []

    def caller(sim):
        try:
            yield channel.call("svc", "never", None, deadline=1e6)
        except RpcError as exc:
            errors.append(exc.code)

    sim.spawn(caller(sim))
    sim.run(until=1.0)
    channel.close()
    sim.run(until=2.0)
    assert errors == [RpcError.UNAVAILABLE]


def test_server_stats_track_requests():
    sim, net, server, channel = build()
    server.register("svc", "m", lambda r: "ok")
    call(sim, channel, "svc", "m", None)
    assert server.stats["requests"] == 1


# -- timer lifecycle and the co-located fast path -----------------------------


def test_response_revokes_deadline_and_retry_timers():
    """A completed call must cancel its expiry/retry timers: the run drains
    at the response, not at the 60 s deadline, and nothing stays pending."""
    sim, net, server, channel = build()
    server.register("svc", "echo", lambda req: req)
    got = []

    def caller(sim):
        got.append((yield channel.call("svc", "echo", 42, deadline=60.0)))

    sim.spawn(caller(sim))
    drained_at = sim.run()
    assert got == [42]
    assert drained_at < 1.0
    assert channel.pending_calls() == 0
    assert sim.pending == 0


def test_close_revokes_in_flight_timers():
    sim, net, server, channel = build()
    net.set_node_up("server", False)  # requests black-hole -> retry chain
    failures = []

    def caller(sim):
        try:
            yield channel.call("svc", "echo", 1, deadline=120.0)
        except RpcError as exc:
            failures.append(exc.code)

    sim.spawn(caller(sim))
    sim.run(until=1.0)
    channel.close()
    drained_at = sim.run()
    assert failures == [RpcError.UNAVAILABLE]
    assert drained_at < 2.0  # not the 120 s deadline
    assert channel.pending_calls() == 0
    assert sim.pending == 0


def test_colocated_call_replies_without_retries_or_timer_rot():
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    server = RpcServer(sim, net, "host")
    channel = RpcChannel(sim, net, "host", "host")
    server.register("svc", "inc", lambda req: req + 1)
    got = []

    def caller(sim):
        got.append((yield channel.call("svc", "inc", 1)))

    sim.spawn(caller(sim))
    sim.run()
    assert got == [2]
    assert channel.stats["retries"] == 0
    assert sim.pending == 0


def test_call_storm_leaves_no_timer_rot():
    sim, net, server, channel = build()
    server.register("svc", "echo", lambda req: req)
    results = []

    def caller(sim, i):
        results.append((yield channel.call("svc", "echo", i, deadline=30.0)))

    for i in range(50):
        sim.spawn(caller(sim, i))
    drained_at = sim.run()
    assert sorted(results) == list(range(50))
    assert drained_at < 5.0
    assert channel.pending_calls() == 0
    assert sim.pending == 0
