"""Host cost of the kernel loop: the same per event however a run stops.

``run()``, ``run(until=)`` and ``run_until_triggered()`` share one
dispatch loop, and their stop conditions are queue entries rather than
per-event tests (DESIGN.md §6.3), so a timer event, a process resume and a
cancelled entry cost the same number of calls under all three.  The checks
count executed calls - never time - so they are deterministic.
"""

import pytest

from repro.obs import Tracer
from repro.sim import RngRegistry, Simulator

from test_pipelined_teardown_cost import calls_executed

N = 10_000
CHAINS = 10


def _noop():
    pass


def timer_chains(sim):
    """``N`` fire-and-forget timers, each callback arming the next."""
    def tick(left):
        if left:
            sim.call_later(0.001, tick, left - 1)

    for _ in range(CHAINS):
        sim.call_later(0.0, tick, N // CHAINS - 1)


def process_loops(sim):
    """``N`` process resumes: processes sleeping in short timeouts."""
    def sleeper(sim):
        for _ in range(N // CHAINS):
            yield sim.timeout(0.001)

    for _ in range(CHAINS):
        sim.spawn(sleeper(sim))


def cancelled_entries(sim):
    """``N`` cancelled heap entries ahead of one live one."""
    for i in range(N):
        sim.schedule(0.2 * i / N, _noop).cancel()
    sim.schedule(0.2, _noop)


def stopper(sim, how):
    if how == "run":
        return sim.run
    if how == "until":
        return lambda: sim.run(until=1e6)
    done = sim.event()
    sim.schedule(1e5, done.succeed)
    return lambda: sim.run_until_triggered(done, limit=1e6)


def calls_per_entry(workload, how, tracer=False):
    sim = Simulator()
    if tracer:
        Tracer(sim, RngRegistry(1))
    workload(sim)
    return calls_executed(stopper(sim, how)) / N


@pytest.mark.parametrize("workload, budget", [
    # With a loop per stop mode, run(until=) / run_until_triggered paid
    # 10.0 / 11.0 per timer event and 35.0 / 37.0 per resume.
    (timer_chains, 8.1),
    (process_loops, 31.1),
    (cancelled_entries, 1.01),  # one heappop each
])
@pytest.mark.parametrize("how", ["run", "until", "triggered"])
def test_every_stop_mode_costs_the_bare_run_figure(workload, budget, how):
    bare = calls_per_entry(workload, "run")
    assert bare <= budget
    assert calls_per_entry(workload, how) <= bare + 0.01


def test_tracer_on_costs_no_more_per_event():
    # The ambient-context swap is inline in the loop, not a call.
    assert calls_per_entry(timer_chains, "until", tracer=True) \
        <= calls_per_entry(timer_chains, "run") + 0.01
