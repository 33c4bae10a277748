"""SimSan: the kernel-integrated runtime sanitizer.

Covers the three checks (orphan timers, RNG stream sharing, release
discipline), the zero-cost wiring (plain simulators are untouched), and
determinism parity: a sanitized run observes the exact same event order
as a plain one.
"""

import pytest

from repro.sim import RngRegistry, SimSan, Simulator
from repro.sim.kernel import SimulationError
from repro.sim.sansim import SanHandle


def drain(sim, until=60.0):
    sim.run(until=until)


# -- wiring ------------------------------------------------------------------------


def test_plain_simulator_class_is_untouched():
    sim = Simulator()
    assert type(sim) is Simulator
    assert not isinstance(sim.schedule(1.0, lambda: None), SanHandle)


def test_sanitized_simulator_keeps_behavior():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    assert type(sim) is Simulator
    fired = []
    sim.schedule(1.0, fired.append, 1)
    drain(sim)
    assert fired == [1]
    assert san.ok


def test_one_sansim_per_simulator():
    san = SimSan()
    Simulator(sanitizer=san)
    with pytest.raises(SimulationError):
        Simulator(sanitizer=san)


def test_schedule_returns_checking_handle():
    sim = Simulator(sanitizer=SimSan())
    handle = sim.schedule(1.0, lambda: None)
    assert isinstance(handle, SanHandle)
    assert handle.active
    assert handle.when == pytest.approx(1.0)
    assert handle.cancel()


# -- orphan timers -----------------------------------------------------------------


def test_orphaned_guard_timer_reported_with_site():
    san = SimSan()
    sim = Simulator(sanitizer=san)

    def proc(sim):
        # The PR 6 bug shape: guard scheduled, owner exits, no revoke.
        sim.schedule(30.0, lambda: None)
        yield sim.timeout(1.0)

    sim.spawn(proc(sim), name="leaky")
    drain(sim, until=5.0)
    assert not san.ok
    report = san.reports[0]
    assert report["check"] == "orphan-timer"
    assert report["code"] == "SIMSAN01"
    assert report["owner"] == "leaky"
    assert "test_sansim" in report["path"]
    assert report["line"] > 0
    assert "leaky" in report["message"]
    # Creation stacks are captured by default.
    assert report["stack"] and "schedule" in report["stack"]


def test_orphan_reported_once_across_runs():
    san = SimSan()
    sim = Simulator(sanitizer=san)

    def proc(sim):
        sim.schedule(30.0, lambda: None)
        yield sim.timeout(1.0)

    sim.spawn(proc(sim), name="leaky")
    drain(sim, until=5.0)
    drain(sim, until=6.0)
    assert len(san.reports) == 1


def test_cancelled_guard_is_not_an_orphan():
    san = SimSan()
    sim = Simulator(sanitizer=san)

    def proc(sim):
        guard = sim.schedule(30.0, lambda: None)
        try:
            yield sim.timeout(1.0)
        finally:
            guard.cancel()

    sim.spawn(proc(sim), name="careful")
    drain(sim, until=5.0)
    assert san.ok


def test_timer_of_live_process_is_not_an_orphan():
    san = SimSan()
    sim = Simulator(sanitizer=san)

    def proc(sim):
        sim.schedule(30.0, lambda: None)
        yield sim.timeout(100.0)

    sim.spawn(proc(sim), name="alive")
    drain(sim, until=5.0)  # owner still parked on its timeout
    assert san.ok


def test_fire_and_forget_call_later_is_untracked():
    san = SimSan()
    sim = Simulator(sanitizer=san)

    def proc(sim):
        sim.call_later(30.0, lambda: None)
        yield sim.timeout(1.0)

    sim.spawn(proc(sim), name="fast-path")
    drain(sim, until=5.0)
    assert san.ok


# -- RNG stream sharing ------------------------------------------------------------


def _drawer(sim, rng, name, at):
    def proc(sim):
        yield sim.timeout(at)
        rng.stream(name).random()
        yield sim.timeout(10.0)
        rng.stream(name).random()

    return proc(sim)


def test_interleaved_cross_process_draws_reported():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    rng = san.watch_rng(RngRegistry(7))
    # A draws, B draws, then A draws again: A's subsequence now depends
    # on whether B ran in between — interleaving-dependent.
    sim.spawn(_drawer(sim, rng, "shared", 1.0), name="proc-a")
    sim.spawn(_drawer(sim, rng, "shared", 2.0), name="proc-b")
    drain(sim)
    assert not san.ok
    report = san.reports[0]
    assert report["check"] == "rng-stream-sharing"
    assert report["code"] == "SIMSAN02"
    assert "shared" in report["message"]
    # Reported once per stream, not once per draw.
    assert len([r for r in san.reports
                if r["check"] == "rng-stream-sharing"]) == 1


def test_sequential_handoff_is_clean():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    rng = san.watch_rng(RngRegistry(7))

    def one_shot(sim, at):
        def proc(sim):
            yield sim.timeout(at)
            rng.stream("handoff").random()

        return proc(sim)

    # Each process draws once and exits: sequential handoff, the common
    # per-component-stream pattern.
    for i in range(5):
        sim.spawn(one_shot(sim, float(i + 1)), name=f"shot-{i}")
    drain(sim)
    assert san.ok


def test_distinct_streams_are_clean():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    rng = san.watch_rng(RngRegistry(7))
    sim.spawn(_drawer(sim, rng, "stream-a", 1.0), name="proc-a")
    sim.spawn(_drawer(sim, rng, "stream-b", 2.0), name="proc-b")
    drain(sim)
    assert san.ok


def test_top_level_draws_are_ignored():
    san = SimSan()
    Simulator(sanitizer=san)
    rng = san.watch_rng(RngRegistry(7))
    rng.stream("setup").random()  # no current process: setup-time draw
    assert san.ok


# -- release discipline ------------------------------------------------------------


def test_double_release_reported():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    handle = sim.schedule(1.0, lambda: None)
    assert handle.release()
    assert not handle.release()
    assert not san.ok
    assert san.reports[0]["code"] == "SIMSAN03"
    assert "double release" in san.reports[0]["message"]


def test_use_after_release_reported():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    handle = sim.schedule(1.0, lambda: None)
    handle.release()
    assert handle.cancel() is False
    assert not san.ok
    assert "use-after-release" in san.reports[0]["message"]


def test_cancel_then_release_is_the_normal_pattern():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    handle = sim.schedule(1.0, lambda: None)
    assert handle.cancel()
    assert not handle.cancel()  # idempotent, benign
    drain(sim)
    assert san.ok


def test_release_after_fire_is_benign():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    fired = []
    handle = sim.schedule(1.0, fired.append, 1)
    drain(sim)
    assert fired == [1]
    assert handle.release() is False  # already fired: returns False, no report
    assert san.ok


# -- reporting surfaces ------------------------------------------------------------


def test_findings_and_report_shapes():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    handle = sim.schedule(1.0, lambda: None)
    handle.release()
    handle.release()
    findings = san.findings()
    assert len(findings) == 1
    assert findings[0].rule == "simsan-release-discipline"
    assert findings[0].code == "SIMSAN03"
    report = san.to_report()
    assert report["tool"] == "simsan"
    assert report["report_count"] == 1
    assert report["reports"][0]["check"] == "release-discipline"


def test_max_reports_cap():
    san = SimSan(max_reports=3)
    sim = Simulator(sanitizer=san)
    for _ in range(10):
        handle = sim.schedule(1.0, lambda: None)
        handle.release()
        handle.release()
    assert len(san.reports) == 3


# -- determinism parity ------------------------------------------------------------


def test_sanitized_run_observes_identical_event_order():
    def workload(sim, log):
        def proc(sim, tag):
            for step in range(3):
                yield sim.timeout(1.0 + 0.1 * step)
                log.append((round(sim.now, 6), tag, step))

        for tag in ("a", "b", "c"):
            sim.spawn(proc(sim, tag), name=f"p-{tag}")
        guard = sim.schedule(50.0, lambda: None)
        sim.run(until=20.0)
        guard.cancel()
        return sim.now

    plain_log, san_log = [], []
    plain_end = workload(Simulator(), plain_log)
    san = SimSan()
    san_end = workload(Simulator(sanitizer=san), san_log)
    assert san_log == plain_log
    assert san_end == plain_end
    assert san.ok
