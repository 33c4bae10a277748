"""Host cost of the CPU model: proportional to what changes, not to time.

The model holds one kernel entry at the earliest completion and nothing
else (DESIGN.md §6.10), so a box that only forwards traffic costs the
kernel nothing however long it runs, and a task costs a fixed handful of
calls from ``submit`` to ``done``.  The checks count kernel entries and
executed calls - never time - so they are deterministic.
"""

from repro.sim import CpuModel, Simulator

from test_pipelined_teardown_cost import calls_executed

CORES = 8
STAGE = 0.083     # one attach stage on the virtual profile, core-seconds


def _noop():
    pass


def entries_scheduled(sim):
    """The kernel's sequence counter, read off a probe revoked at once."""
    probe = sim.schedule(0.0, _noop)
    probe.cancel()
    return probe.seq


def test_fluid_demand_alone_schedules_nothing_for_100_seconds():
    sim = Simulator()
    cpu = CpuModel(sim, cores=CORES)
    before = entries_scheduled(sim)
    cpu.set_fluid_demand("up", "traffic", 2.0)
    cpu.set_fluid_demand("cp", "fleet-attach", 0.5)
    assert sim.pending == 0
    sim.run(until=50.0)
    cpu.set_fluid_demand("up", "traffic", 3.0)
    sim.run(until=100.0)
    assert entries_scheduled(sim) - before == 1          # the second probe
    assert cpu.busy_core_seconds() == 2.5 * 50 + 3.5 * 50


def test_isolated_tasks_schedule_at_most_two_entries_each():
    sim = Simulator()
    cpu = CpuModel(sim, cores=CORES)
    tasks = 50
    finished = []
    before = entries_scheduled(sim)
    for i in range(tasks):
        cpu.submit("cp", STAGE).add_callback(finished.append)
        sim.run(until=float(i + 1))
    assert len(finished) == tasks
    # One completion wake and one callback dispatch per task.
    assert entries_scheduled(sim) - before - 1 <= 2 * tasks


def test_queued_submit_and_unchanged_fluid_rate_schedule_nothing():
    sim = Simulator()
    cpu = CpuModel(sim, cores=2.5)    # two task slots and room for the fluid
    cpu.set_fluid_demand("up", "traffic", 0.5)
    finished = []
    for demand in (1.0, 2.0):         # fills the runnable set
        cpu.submit("cp", demand).add_callback(
            lambda _done: finished.append(sim.now))
    sim.run(until=0.5)
    before = entries_scheduled(sim)
    cpu.submit("cp", 0.25).add_callback(
        lambda _done: finished.append(sim.now))     # queues behind them
    cpu.set_fluid_demand("up", "traffic", 0.5)
    assert entries_scheduled(sim) - before == 1
    assert cpu.queue_depth("cp") == 3
    assert sim.pending == 1           # still just the first completion
    sim.run(until=3.0)
    assert finished == [1.0, 1.25, 2.0]


def task_stream(gap, count, warm_up, submit):
    """A simulator holding ``count`` arrivals ``gap`` seconds apart, after
    ``warm_up`` earlier ones have run; with ``submit`` off the same arrivals
    do nothing, which prices the harness itself."""
    sim = Simulator()
    cpu = CpuModel(sim, cores=CORES)
    finished = []

    def arrive():
        if submit:
            cpu.submit("cp", STAGE).add_callback(finished.append)

    for i in range(warm_up + count):
        sim.schedule_at(i * gap, arrive)
    if warm_up:
        sim.run(until=warm_up * gap - gap / 2)
    return sim


def calls_per_task(gap, count=200, warm_up=0):
    """Calls from ``submit`` to ``done`` per task, all layers: a run of the
    arrivals minus the same run with arrivals that submit nothing."""
    return (calls_executed(task_stream(gap, count, warm_up, True).run)
            - calls_executed(task_stream(gap, count, warm_up, False).run)
            ) / count


def test_an_isolated_task_costs_a_fixed_handful_of_calls():
    first = calls_per_task(gap=1.0)
    assert first <= 55                # 43 measured; 127 when the model ticked
    assert calls_per_task(gap=1.0, warm_up=1000) <= first + 0.5


def test_a_task_in_a_stream_costs_no_more():
    """Arrivals every 20 ms keep ~4 tasks overlapping; each still pays its
    own wake and nothing for the others."""
    first = calls_per_task(gap=0.02)
    assert first <= 50                # 43 measured; 54 when the model ticked
    assert calls_per_task(gap=0.02, warm_up=1000) <= first + 1.0
