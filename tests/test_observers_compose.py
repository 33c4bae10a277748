"""Every observer on at once: sanitizer, profiler, tracer, flight recorder.

They share the kernel's one dispatch seam (``Simulator.add_hook`` plus the
tracer's inline context swap), so an attach storm run with all four must
be sanitizer-clean, attributed by the profiler, traced and recorded - and
fire exactly the callbacks a run with the tracer alone fires, in the same
order.  A plain run fires the same callbacks minus the ones the tracer
adds to close its spans.
"""

from repro.deploy import build
from repro.obs import FlightRecorder, Tracer
from repro.obs.profiler import Profiler
from repro.sim import Hook
from repro.sim.sansim import SimSan
from repro.workloads.attach_storm import AttachStorm


class FiringOrder(Hook):
    """Records ``(now, callback name)`` for every dispatch."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = []

    def dispatching(self, seq, fn):
        self.fired.append((self.sim.now, getattr(fn, "__qualname__", "?")))


def attach_storm(tracer=False, everything=False):
    san = SimSan() if everything else None
    site = build(num_enbs=2, num_ues=24, seed=5, sanitizer=san)
    order = FiringOrder(site.sim)
    site.sim.add_hook(order)
    observers = {"sanitizer": san}
    if tracer or everything:
        observers["tracer"] = Tracer(site.sim, site.rng)
    if everything:
        observers["profiler"] = Profiler()
        site.sim.add_hook(observers["profiler"])
        observers["recorder"] = FlightRecorder(site.sim)
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=8.0,
                        monitor=site.monitor)
    storm.start()
    site.sim.run_until_triggered(storm.done, limit=site.sim.now + 120.0)
    site.sim.run(until=site.sim.now + 10.0)
    return storm.success_count(), order.fired, observers


def is_subsequence(short, long):
    rest = iter(long)
    return all(item in rest for item in short)


def test_all_observers_compose_without_perturbing_the_run():
    plain_successes, plain_order, _ = attach_storm()
    _, traced_order, _ = attach_storm(tracer=True)
    successes, order, observers = attach_storm(everything=True)
    assert plain_successes == successes > 0
    assert order == traced_order
    assert is_subsequence(plain_order, order)
    san = observers["sanitizer"]
    assert san.ok, [report["message"] for report in san.reports]
    report = observers["profiler"].report()
    assert {"sim.kernel", "core.agw.mme", "net.simnet", "lte.ran"} <= \
        set(report["subsystems"])
    assert observers["tracer"].stats["spans"] > 0
    assert observers["recorder"].stats["records"] > 0
