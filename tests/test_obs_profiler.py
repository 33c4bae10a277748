"""Self-profiler: owner attribution on the kernel hook seam, and parity.

The profiler is a plain kernel ``Hook``: it charges each dispatched
callback to the module that owns it and the loop itself to
``sim.kernel``.  It may never perturb the simulation: a profiled run must
observe the exact same event order, final clock and fleet canaries as a
plain one.
"""

import gc
import importlib.util

import pytest

from repro.core.agw import VIRTUAL_8VCPU, AgwConfig
from repro.deploy import build
from repro.obs.profiler import KERNEL, Profiler, owner_of
from repro.sim import PeriodicCall, Simulator
from repro.sim.sansim import SimSan
from repro.workloads.attach_storm import AttachStorm
from repro.workloads.fleet import AgwFleetAdapter, CohortSpec, UeFleet

#: Key of callbacks defined here: a module outside ``repro`` keeps its name.
HERE = __name__


def churn(sim, fired, n=200):
    """A deterministic workload touching near and far timers."""
    for i in range(n):
        sim.call_later(0.01 * i, fired.append, i)
        sim.call_later(50.0 + 0.01 * i, fired.append, n + i)
    sim.run()
    return sim.now


def profiled(sim, prof=None):
    prof = prof or Profiler()
    sim.add_hook(prof)
    return prof


def is_repro_module(key):
    """Whether profile key ``key`` names a module of the program."""
    return importlib.util.find_spec("repro." + key) is not None


def shares_sum_to_one(report):
    return sum(row["share"] for row in report["subsystems"].values()) == \
        pytest.approx(1.0)


# -- accounting --------------------------------------------------------------------


def test_self_time_is_charged_to_the_callbacks_module():
    sim = Simulator()
    prof = profiled(sim)
    seen = []

    def work(i):
        seen.append(i)

    for i in range(5):
        sim.call_later(0.1 * i, work, i)
    sim.call_later(1.0, seen.append, "builtin")
    sim.run()
    report = prof.report()
    assert set(report["subsystems"]) == {HERE, KERNEL}
    assert report["subsystems"][HERE]["calls"] == 5
    # A builtin has no module of its own: kernel time, like the loop.
    assert report["subsystems"][KERNEL]["calls"] == 1
    assert shares_sum_to_one(report)
    assert report["total_s"] == sum(prof.self_s.values()) > 0.0
    assert all(row["self_s"] >= 0.0
               for row in report["subsystems"].values())


def test_calls_count_dispatches_per_owner():
    sim = Simulator()
    prof = profiled(sim)

    def a():
        pass

    def b():
        pass

    ticker = sim.schedule_periodic(1.0, a)
    sim.call_later(2.5, b)
    sim.call_later(4.5, ticker.cancel)
    sim.run()
    # Ticks of ``a`` at 1-4 s, ``b``, then the ticker's ``cancel`` (a
    # PeriodicCall's methods are its callback's), which revokes the 5 s tick.
    assert prof.calls[HERE] == 6


def test_owner_of_a_process_is_its_generators_module():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)

    process = sim.spawn(proc())
    assert owner_of(process._step) == HERE
    ticker = PeriodicCall(sim, 1.0, churn, ())
    assert owner_of(ticker._fire) == HERE
    ticker.cancel()
    sim.run()
    # A finished generator has no frame: its leftovers are kernel time.
    assert owner_of(process._step) == KERNEL
    assert owner_of(sim.timeout(1.0)._fire) == KERNEL


# -- hook wiring -------------------------------------------------------------------


def test_add_hook_profiles_the_loop():
    sim = Simulator()
    prof = profiled(sim)
    churn(sim, [], n=10)
    assert prof.calls[KERNEL] == 20


def test_profiler_composes_with_sanitizer_and_another_profiler():
    san = SimSan()
    sim = Simulator(sanitizer=san)
    first, second = profiled(sim), profiled(sim)
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.run()
    assert fired == ["x"] and not handle.active and san.ok
    assert first.calls == second.calls == {KERNEL: 1}


def test_disabled_path_leaves_class_untouched():
    sim = Simulator()
    prof = Profiler()
    fired = []
    churn(sim, fired, n=20)
    assert type(sim) is Simulator
    assert len(fired) == 40 and prof.calls == {}


# -- owner attribution on real workloads ---------------------------------------------


def attach_storm(n_ues=120, rate=10.0, seed=7, prof=None):
    """bench_components' smoke attach storm."""
    site = build(num_enbs=4, num_ues=n_ues, seed=seed)
    if prof is not None:
        site.sim.add_hook(prof)
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=rate,
                        monitor=site.monitor)
    storm.start()
    gc.collect()
    site.sim.run_until_triggered(
        storm.done, limit=site.sim.now + 120.0 + n_ues / rate)
    site.sim.run(until=site.sim.now + 10.0)
    return storm.success_count()


def cohort_fleet(prof=None, subscribers=2_000, sample_ues=20,
                 duration=60.0):
    """A cohort fleet with sampled coroutine UEs; returns the canaries
    ``bench_components``' fleet leg commits."""
    site = build(num_enbs=1, num_ues=sample_ues,
                 config=AgwConfig(hardware=VIRTUAL_8VCPU),
                 seed=23)
    cohort = CohortSpec("subs", size=subscribers, attach_rate=0.01,
                        detach_rate=0.002, idle_rate=0.005,
                        resume_rate=0.02, traffic_mbps=0.01)
    fleet = UeFleet(site.sim, site.rng, [AgwFleetAdapter(site.agw)],
                    [cohort], monitor=site.monitor, tick=1.0, name="t")
    fleet.add_sample_ues("subs", site.ues)
    fleet.start()
    assert owner_of(fleet._ticker._fire) == "workloads.fleet"
    if prof is not None:
        site.sim.add_hook(prof)
    site.sim.run(until=duration)
    probe = site.sim.schedule(0.0, churn)   # its seq counts every entry
    probe.cancel()
    return {
        "attached_at_end": fleet.attached(),
        "attach_accepted": fleet.counters["attach_accepted"],
        "sessions_at_end": site.agw.sessiond.session_count(),
        "sample_attach_successes":
            fleet.counters["sample_attach_successes"],
        "events": probe.seq,
        "ticks": fleet.ticks,
    }


def test_attach_storm_is_charged_to_owner_modules():
    prof = Profiler()
    assert attach_storm(prof=prof) > 0
    report = prof.report()
    keys = set(report["subsystems"])
    assert len(keys) >= 8
    assert all(map(is_repro_module, keys))
    # The procedure's own modules, each a process or a delivery owner.
    assert {KERNEL, "core.agw.mme", "net.simnet", "lte.ran",
            "lte.ue", "workloads.attach_storm"} <= keys
    # No one module takes the run: bounded on the dispatch counts, which
    # are deterministic (``net.simnet`` is the largest, at 0.328), not on
    # host-clock shares, which move with the machine's load.
    calls = [row["calls"] for row in report["subsystems"].values()]
    assert max(calls) < 0.35 * sum(calls)
    assert shares_sum_to_one(report)


def test_fleet_tick_is_charged_to_the_fleet_module():
    prof = Profiler()
    canaries = cohort_fleet(prof=prof)
    report = prof.report()
    # The batched tick is a PeriodicCall of UeFleet._advance; the
    # callbacks on sampled UEs' procedure outcomes are the fleet's too.
    assert report["subsystems"]["workloads.fleet"]["calls"] > \
        canaries["ticks"] > 0
    assert {KERNEL, "lte.ue", "core.agw.mme"} <= set(report["subsystems"])
    assert all(map(is_repro_module, report["subsystems"]))
    assert shares_sum_to_one(report)


# -- parity ------------------------------------------------------------------------


def test_profiled_run_observes_identical_event_order():
    plain_fired, prof_fired = [], []
    plain_end = churn(Simulator(), plain_fired)
    sim = Simulator()
    prof = profiled(sim)
    prof_end = churn(sim, prof_fired)
    assert prof_fired == plain_fired
    assert prof_end == plain_end
    # Far-buffer flushes are loop time, ``list.append`` has no module: all
    # of it is the kernel's.
    assert set(prof.report()["subsystems"]) == {KERNEL}
    assert prof.calls[KERNEL] == 400


def test_profiled_fleet_has_the_plain_fleets_canaries():
    assert cohort_fleet(prof=Profiler()) == cohort_fleet()
