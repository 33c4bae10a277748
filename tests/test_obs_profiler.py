"""Self-profiler: accounting, hook wiring, and behaviour parity.

The profiler may never perturb the simulation: a profiled run must
observe the exact same event order and final clock as a plain one, and
the disabled path must leave the Simulator class untouched.
"""

import pytest

from repro.net.rpc import payload_bytes
from repro.obs import profiler
from repro.obs.profiler import Profiler, detach, install
from repro.sim import SimSan, Simulator


@pytest.fixture(autouse=True)
def _no_leaked_active():
    assert profiler.ACTIVE is None
    yield
    profiler.ACTIVE = None


def churn(sim, fired, n=200):
    """A deterministic workload touching near and far timers."""
    for i in range(n):
        sim.call_later(0.01 * i, fired.append, i)
        sim.call_later(50.0 + 0.01 * i, fired.append, n + i)
    sim.run()
    return sim.now


# -- accounting --------------------------------------------------------------------


def test_self_time_and_flame_paths():
    prof = Profiler()
    prof.push("kernel.loop")
    prof.push("kernel.dispatch")
    prof.push("rpc.deliver")
    prof.pop()
    prof.pop()
    prof.pop()
    assert set(prof.self_s) == {
        "kernel.loop", "kernel.loop;kernel.dispatch",
        "kernel.loop;kernel.dispatch;rpc.deliver"}
    assert prof.calls["kernel.loop;kernel.dispatch;rpc.deliver"] == 1
    report = prof.report()
    assert set(report["subsystems"]) == \
        {"kernel.loop", "kernel.dispatch", "rpc.deliver"}
    shares = sum(row["share"] for row in report["subsystems"].values())
    assert shares == pytest.approx(1.0)
    assert all(row["self_s"] >= 0.0
               for row in report["subsystems"].values())


def test_subsystems_aggregate_by_leaf_across_parents():
    prof = Profiler()
    for parent in ("kernel.dispatch", "fleet.tick"):
        prof.push(parent)
        prof.push("rpc.serialize")
        prof.pop()
        prof.pop()
    agg = prof.subsystems()
    assert agg["rpc.serialize"]["calls"] == 2


def test_reset_clears_everything():
    prof = Profiler()
    prof.push("a")
    prof.pop()
    prof.reset()
    assert prof.self_s == {} and prof.calls == {}
    assert prof.report()["total_s"] == 0.0


# -- install/detach wiring ---------------------------------------------------------


def test_install_hooks_the_loop_and_detach_unhooks():
    sim = Simulator()
    prof = install(sim)
    assert profiler.ACTIVE is prof
    churn(sim, [], n=10)
    assert prof.calls["kernel.loop;kernel.dispatch"] == 20
    assert detach(sim) is prof
    assert profiler.ACTIVE is None
    assert detach(sim) is None  # idempotent on a plain sim
    churn(sim, [], n=10)
    assert prof.calls["kernel.loop;kernel.dispatch"] == 20  # not counting


def test_install_composes_with_sanitizer_but_refuses_second_profiler():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    prof = install(sim)
    try:
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"] and not handle.active and san.ok
        assert prof.calls["kernel.loop;kernel.dispatch"] == 1
    finally:
        detach(sim)
    sim = Simulator()
    install(sim)
    try:
        with pytest.raises(ValueError):
            install(Simulator())
    finally:
        detach(sim)


def test_disabled_path_leaves_class_untouched():
    sim = Simulator()
    fired = []
    churn(sim, fired, n=20)
    assert type(sim) is Simulator
    assert profiler.ACTIVE is None


# -- parity ------------------------------------------------------------------------


def test_profiled_run_observes_identical_event_order():
    plain_fired, prof_fired = [], []
    plain_end = churn(Simulator(), plain_fired)
    sim = Simulator()
    prof = install(sim)
    try:
        prof_end = churn(sim, prof_fired)
    finally:
        detach(sim)
    assert prof_fired == plain_fired
    assert prof_end == plain_end
    report = prof.report()
    assert "kernel.loop" in report["subsystems"]
    assert "kernel.dispatch" in report["subsystems"]
    # Wheel flushes are loop time: no scope of their own.
    assert set(report["subsystems"]) == {"kernel.loop", "kernel.dispatch"}
    assert report["subsystems"]["kernel.dispatch"]["calls"] == 400


# -- subsystem hooks ---------------------------------------------------------------


def test_rpc_serialize_hook_counts_only_when_active():
    message = {"imsi": "001010000000001", "bearers": [1, 2, 3]}
    baseline = payload_bytes(message)
    prof = Profiler()
    profiler.ACTIVE = prof
    try:
        assert payload_bytes(message) == baseline
    finally:
        profiler.ACTIVE = None
    assert prof.subsystems()["rpc.serialize"]["calls"] == 1
    # And with the profiler gone the hook goes quiet again.
    payload_bytes(message)
    assert prof.subsystems()["rpc.serialize"]["calls"] == 1


def test_digest_hash_hook_attributes_to_sync():
    from repro.core.sync.digest import entry_digest

    value = {"imsi": "001010000000001", "state": "ACTIVE"}
    baseline = entry_digest("k", value)
    prof = Profiler()
    profiler.ACTIVE = prof
    try:
        assert entry_digest("k", value) == baseline
    finally:
        profiler.ACTIVE = None
    assert prof.subsystems()["sync.digest_hash"]["calls"] == 1
