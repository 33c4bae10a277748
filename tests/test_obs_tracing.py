"""End-to-end procedure tracing: span nesting, determinism, export."""

import json

import pytest

from repro.deploy import build
from repro.net import Link, Network, RpcChannel, RpcServer
from repro.obs import NOOP_SPAN, Tracer, tracing
from repro.obs.analysis import build_traces, procedure_summary
from repro.obs.export import to_chrome_trace
from repro.sim import RngRegistry, Simulator


def traced_site(sample_rate=1.0, seed=1, **kwargs):
    site = build(seed=seed, **kwargs)
    tracer = Tracer(site.sim, site.rng, sample_rate=sample_rate)
    return site, tracer


def run_one_attach(site):
    outcome = site.run_attach(site.ues[0])
    assert outcome.success
    site.sim.run(until=site.sim.now + 2.0)  # let stragglers finish


def attach_trace(tracer):
    traces = [t for t in build_traces(tracer.spans) if t.name == "attach"]
    assert traces, "no attach trace recorded"
    return traces[0]


def test_attach_trace_nests_all_layers():
    site, tracer = traced_site()
    run_one_attach(site)
    trace = attach_trace(tracer)
    assert trace.complete
    components = {s.component for s in trace.spans}
    # One attach crosses the whole stack: UE radio, RPC transport, the
    # S1AP frontend, the generic MME stages, sessiond, and the data plane.
    for expected in ("ue", "rpc", "mme", "sessiond", "pipelined"):
        assert expected in components, f"missing {expected}: {components}"
    assert trace.root.component == "ue"
    assert trace.root.status == "ok"


def test_attach_trace_time_bounds_are_monotone():
    site, tracer = traced_site()
    run_one_attach(site)
    trace = attach_trace(tracer)
    root = trace.root
    span_ids = {s.span_id for s in trace.spans}
    for span in trace.spans:
        assert span.finished
        assert span.end_time >= span.start
        assert span.start >= root.start
        if span.parent_id is not None and span.parent_id in span_ids:
            parent = next(s for s in trace.spans
                          if s.span_id == span.parent_id)
            # Children never start before their parent.
            assert span.start >= parent.start


def test_traces_are_deterministic_across_runs():
    def run():
        site, tracer = traced_site(seed=7)
        run_one_attach(site)
        return [(s.trace_id, s.span_id, s.parent_id, s.name, s.component,
                 s.start, s.end_time, s.status) for s in tracer.spans]

    assert run() == run()


def test_sampling_zero_records_nothing():
    site, tracer = traced_site(sample_rate=0.0)
    run_one_attach(site)
    assert tracer.spans == []
    assert tracer.stats["traces_sampled"] == 0
    assert tracer.stats["traces_started"] > 0


def test_partial_sampling_records_subset_of_roots():
    site, tracer = traced_site(sample_rate=0.5, num_ues=6)
    for ue in site.ues:
        done = ue.attach()
        site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    site.sim.run(until=site.sim.now + 2.0)
    started = tracer.stats["traces_started"]
    sampled = tracer.stats["traces_sampled"]
    assert started >= 6
    assert 0 < sampled < started


def test_no_tracer_is_noop():
    site = build()
    assert site.sim.tracer is None      # every span site takes NOOP_SPAN
    span = NOOP_SPAN
    assert not span.recording
    span.set_tag("k", "v").end("error")  # all no-ops
    outcome = site.run_attach(site.ues[0])
    assert outcome.success
    assert site.sim.ctx is None


def test_a_tracer_installed_after_the_gateway_records_its_attach_spans():
    site = build()                      # the AccessGateway exists already
    tracer = Tracer(site.sim, site.rng)
    run_one_attach(site)
    names = {span.name for span in attach_trace(tracer).spans}
    for expected in ("mme.attach_stage1", "sessiond.create_session",
                     "pipelined.install_session"):
        assert expected in names, f"missing {expected}: {names}"


def test_breakdown_sums_to_at_most_root_duration():
    site, tracer = traced_site()
    run_one_attach(site)
    trace = attach_trace(tracer)
    breakdown = trace.breakdown()
    assert sum(breakdown.values()) <= trace.duration + 1e-9
    # The bare-metal profile makes attach CPU-dominated: most of the
    # latency must be attributed to the MME stages, not the root.
    fractions = trace.breakdown_fractions()
    assert fractions["mme"] > 0.5
    path = trace.critical_path()
    assert path[0] is trace.root
    assert len(path) > 1


def test_procedure_summary_percentiles():
    site, tracer = traced_site(num_ues=3)
    for ue in site.ues:
        done = ue.attach()
        site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    site.sim.run(until=site.sim.now + 2.0)
    summary = procedure_summary(
        t for t in build_traces(tracer.spans) if t.complete)
    attach = summary["attach"]
    assert attach["count"] == 3.0
    assert 0 < attach["p50"] <= attach["p95"] <= attach["p99"] <= attach["max"]


def test_chrome_trace_export_is_valid():
    site, tracer = traced_site()
    run_one_attach(site)
    document = to_chrome_trace(tracer.spans)
    text = json.dumps(document)  # must be JSON-serializable
    parsed = json.loads(text)
    events = parsed["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert complete
    for event in complete:
        assert event["dur"] >= 0
        assert event["ts"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert any("agw" in n or "ue" in n or "enb" in n or "sim" in n
               for n in names)


def test_detach_idle_and_paging_traced():
    site, tracer = traced_site()
    run_one_attach(site)
    ue = site.ues[0]
    ue.go_idle()
    site.sim.run(until=site.sim.now + 1.0)
    assert site.agw.page(ue.imsi)
    site.sim.run(until=site.sim.now + 5.0)
    assert ue.is_registered  # paging pulled it back to connected
    done = ue.detach(switch_off=False)
    site.sim.run_until_triggered(done, limit=site.sim.now + 10.0)
    names = {t.name for t in build_traces(tracer.spans)}
    for procedure in ("attach", "go_idle", "paging", "detach"):
        assert procedure in names
    paging = next(t for t in build_traces(tracer.spans)
                  if t.name == "paging")
    # The paging-triggered service request nests inside the paging trace.
    assert any(s.name == "service_request" for s in paging.spans)


def test_checkpoint_and_restore_traced():
    site, tracer = traced_site()
    run_one_attach(site)
    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    site.agw.recover()
    site.sim.run(until=site.sim.now + 1.0)
    names = {t.name for t in build_traces(tracer.spans)}
    assert "magmad.checkpoint" in names
    restore_spans = [s for s in tracer.spans if s.name == "sessiond.restore"]
    assert restore_spans
    assert restore_spans[0].tags["sessions"] == 1


def test_span_ids_unique_within_run():
    site, tracer = traced_site(num_ues=4)
    for ue in site.ues:
        done = ue.attach()
        site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    ids = [s.span_id for s in tracer.spans]
    assert len(ids) == len(set(ids))


def test_a_span_past_the_cap_works_through_its_handle(monkeypatch):
    monkeypatch.setattr(tracing, "MAX_SPANS", 2)
    sim = Simulator()
    tracer = Tracer(sim, RngRegistry(1))
    root = tracer.start_trace("attach", component="ue", node="ue-1")
    with root:
        kept = tracer.child("mme.auth", component="mme", node="agw-1")
        dropped = tracer.child("sessiond.create", component="sessiond",
                               tags={"imsi": "001"})
        sim.run(until=0.5)
        with dropped:
            assert sim.ctx == dropped.context
        kept.set_tag("ok", True).end()
    dropped.set_tag("n", 1)
    assert tracer.stats["spans"] == 2 and tracer.stats["spans_dropped"] == 1
    assert (dropped.name, dropped.component, dropped.status,
            dropped.start, dropped.end_time, dropped.finished) == \
        ("sessiond.create", "sessiond", "ok", 0.0, 0.5, True)
    assert dropped.parent_id == root.span_id
    assert dict(dropped.tags) == {"imsi": "001", "n": 1}
    # What the tracer hands out is a read-only copy of the kept rows.
    records = tracer.spans
    assert [(r.name, r.status, r.duration, r.parent_id) for r in records] == \
        [("attach", "ok", 0.5, None), ("mme.auth", "ok", 0.5, root.span_id)]
    assert records[1].context == kept.context
    assert dict(records[1].tags) == {"ok": True} and records[0].tags == {}
    with pytest.raises(AttributeError):
        records[0].status = "error"
    with pytest.raises(TypeError):
        records[1].tags["ok"] = False


def test_tagging_one_rpc_span_leaves_its_siblings_tags_alone():
    """A channel's client spans share one read-only peer tag; a span tagged
    again gets its own copy, and the others keep the shared one."""
    sim = Simulator()
    tracer = Tracer(sim, RngRegistry(1))
    net = Network(sim, RngRegistry(1))
    net.connect("client", "server", Link(latency=0.001))
    RpcServer(sim, net, "server").register("svc", "echo", lambda r: r)
    channel = RpcChannel(sim, net, "client", "server")
    opened = []
    child = tracer.child

    def recording_child(*args, **kwargs):
        span = child(*args, **kwargs)
        if span.component == "rpc":
            opened.append(span)
        return span

    tracer.child = recording_child
    with tracer.start_trace("calls", component="test").active():
        for index in range(3):
            channel.call("svc", "echo", index)
        opened[1].set_tag("retried", True)
        sim.run(until=1.0)
    assert [dict(span.tags) for span in opened] == [
        {"peer": "server"}, {"peer": "server", "retried": True},
        {"peer": "server"}]
    records = [r for r in tracer.spans if r.component == "rpc"]
    assert [dict(r.tags) for r in records] == \
        [dict(span.tags) for span in opened]
    assert all(r.status == "ok" for r in records)
