"""Flight recorder: bounded rings, snapshots, export, trace correlation.

The acceptance scenario lives here too: an injected SimSan orphan-timer
failure must leave a flight-recorder dump whose last events include the
trace-correlated scheduling site of the leaked timer.
"""

import json

import pytest

from repro.obs import flightrec
from repro.obs.flightrec import FlightRecorder
from repro.obs.tracing import Tracer
from repro.sim import RngRegistry, Simulator
from repro.sim.sansim import SimSan


def make_recorder():
    sim = Simulator()
    return sim, FlightRecorder(sim)


# -- rings -------------------------------------------------------------------------


def test_ring_is_bounded_and_drops_oldest(monkeypatch):
    monkeypatch.setattr(flightrec, "RING_CAPACITY", 4)
    sim, rec = make_recorder()
    log = rec.node("agw-0")
    for i in range(10):
        log.info("mme", "attach", n=i)
    records = rec.records("agw-0")
    assert len(records) == 4
    assert [r.fields["n"] for r in records] == [6, 7, 8, 9]
    assert rec.stats["records"] == 10
    assert rec.stats["dropped"] == 6


def test_records_merge_across_nodes_in_emission_order():
    sim, rec = make_recorder()
    rec.node("b").info("x", "one")
    rec.node("a").info("x", "two")
    rec.node("b").info("x", "three")
    assert [r.event for r in rec.records()] == ["one", "two", "three"]
    assert [r.seq for r in rec.records()] == [1, 2, 3]
    assert rec.nodes() == ["a", "b"]


def test_severity_floor_filter():
    sim, rec = make_recorder()
    log = rec.node("n")
    log.debug("c", "d")
    log.info("c", "i")
    log.warn("c", "w")
    log.error("c", "e")
    assert [r.event for r in rec.records(severity="warn")] == ["w", "e"]
    with pytest.raises(ValueError):
        rec.records(severity="fatal")


def test_records_carry_sim_time_and_fields():
    sim, rec = make_recorder()
    sim.schedule(3.5, lambda: rec.node("n").warn("pipelined", "drop",
                                                 imsi="001", count=2))
    sim.run()
    (record,) = rec.records()
    assert record.time == pytest.approx(3.5)
    assert record.severity == "warn"
    assert record.component == "pipelined"
    assert record.fields == {"imsi": "001", "count": 2}


# -- trace correlation -------------------------------------------------------------


def test_records_pick_up_ambient_span_context():
    sim, rec = make_recorder()
    tracer = Tracer(sim, RngRegistry(1))
    span = tracer.start_trace("attach", component="mme", node="agw-0")
    with span.active():
        inside = rec.node("agw-0").info("mme", "t3450.armed")
    outside = rec.node("agw-0").info("mme", "idle")
    span.end()
    assert inside.trace_id == span.trace_id
    assert inside.span_id == span.span_id
    assert outside.trace_id is None
    d = inside.as_dict()
    assert d["trace_id"] == span.trace_id
    assert "trace_id" not in outside.as_dict()


# -- snapshots ---------------------------------------------------------------------


def test_snapshot_freezes_newest_tail(monkeypatch):
    monkeypatch.setattr(flightrec, "SNAPSHOT_TAIL", 3)
    sim, rec = make_recorder()
    log = rec.node("n")
    for i in range(8):
        log.info("c", "e", n=i)
    snap = rec.snapshot("crash:n")
    assert snap["reason"] == "crash:n"
    assert [r["fields"]["n"] for r in snap["records"]] == [5, 6, 7]
    assert rec.snapshots[-1] is snap
    assert rec.stats["snapshots"] == 1


def test_snapshot_list_is_bounded(monkeypatch):
    monkeypatch.setattr(flightrec, "MAX_SNAPSHOTS", 2)
    sim, rec = make_recorder()
    rec.snapshot("a")
    rec.snapshot("b")
    rec.snapshot("c")
    assert [s["reason"] for s in rec.snapshots] == ["b", "c"]


# -- zero-cost disabled path -------------------------------------------------------


def test_plain_sim_has_no_recorder():
    assert Simulator().recorder is None


def test_install_binds_recorder_to_sim_slot():
    sim = Simulator()
    rec = FlightRecorder(sim)
    assert sim.recorder is rec


# -- export ------------------------------------------------------------------------


def test_jsonl_roundtrip(tmp_path):
    sim, rec = make_recorder()
    rec.node("agw-0").info("mme", "attach", imsi="001")
    rec.node("agw-0").error("sessiond", "oom")
    rec.snapshot("alert:cpu")
    path = tmp_path / "flight.jsonl"
    count = rec.dump_jsonl(str(path))
    assert count == 2
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 3
    assert lines[0]["event"] == "attach"
    assert lines[1]["severity"] == "error"
    assert lines[2]["snapshot"]["reason"] == "alert:cpu"
    assert [r["event"] for r in lines[2]["snapshot"]["records"]] == \
        ["attach", "oom"]


def test_empty_recorder_exports_empty():
    sim, rec = make_recorder()
    assert rec.to_jsonl() == ""


# -- the acceptance scenario -------------------------------------------------------


def test_simsan_orphan_timer_dump_ends_with_traced_scheduling_site(tmp_path):
    """Injected orphan timer => dump whose last events carry the
    trace-correlated scheduling site (ISSUE acceptance criterion)."""
    san = SimSan()
    sim = Simulator(sanitizer=san)
    rec = FlightRecorder(sim)
    tracer = Tracer(sim, RngRegistry(3))
    leaked_trace = []

    def proc(sim):
        span = tracer.start_trace("attach", component="mme", node="agw-0")
        leaked_trace.append(span.trace_id)
        with span.active():
            sim.schedule(30.0, lambda: None)  # leak: never revoked
        span.end()
        yield sim.timeout(1.0)

    sim.spawn(proc(sim), name="leaky")
    sim.run(until=5.0)
    assert not san.ok
    assert san.reports[0]["check"] == "orphan-timer"

    # The sanitizer report auto-snapshotted the ring.
    snap = rec.snapshots[-1]
    assert snap["reason"] == "simsan:SIMSAN01"
    events = snap["records"]
    # Last events include the simsan report itself...
    assert events[-1]["component"] == "simsan"
    assert "orphaned timer" in events[-1]["fields"]["message"]
    # ...and the trace-correlated breadcrumb of the site that armed it.
    scheduled = [e for e in events
                 if e["event"] == "timer.scheduled"
                 and e.get("trace_id") == leaked_trace[0]]
    assert scheduled, "no trace-correlated scheduling breadcrumb in tail"
    assert "test_obs_flightrec" in scheduled[-1]["fields"]["site"]

    # The JSONL dump preserves all of it.
    path = tmp_path / "dump.jsonl"
    rec.dump_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    snaps = [ln for ln in lines if "snapshot" in ln]
    assert any(s["snapshot"]["reason"] == "simsan:SIMSAN01" for s in snaps)


def test_trace_cli_dumps_the_flight_recorder(tmp_path, capsys):
    """``python -m repro.obs --flightrec`` dumps the demo's recorder; the
    demo ends with a crash and recovery, so the dump is not empty."""
    from repro.obs.cli import main

    path = tmp_path / "flightrec.jsonl"
    assert main([str(tmp_path / "trace.json"), "--ues", "4", "--rate", "4",
                 "--flightrec", str(path)]) == 0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    events = [line["event"] for line in lines if "event" in line]
    assert events == ["crash", "restore"]
    assert "wrote 2 flight-recorder lines" in capsys.readouterr().out
