"""Unit tests for the event-driven CPU model (the Fig. 5-8 substrate).

Service rates are constant between change points, so every completion
time and every integral below is exact, not "within a quantum".
"""

import pytest

from repro.sim import CpuModel, Simulator


def run_task(sim, cpu, cls, demand, results):
    submitted_at = sim.now
    done = cpu.submit(cls, demand)

    def waiter(sim):
        sojourn = yield done
        # The event fires when the task completes, and says how long it took.
        assert sojourn == sim.now - submitted_at
        results.append((sim.now, sojourn))

    sim.spawn(waiter(sim))


def finish_times(results):
    return sorted(t for t, _ in results)


def test_single_task_completes_in_about_demand():
    """In exactly its demand, now that nothing is quantized."""
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    results = []
    run_task(sim, cpu, "cp", 0.5, results)
    sim.run()
    assert results == [(0.5, 0.5)]


def test_sojourn_counts_queueing_from_a_late_submit():
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    results = []
    sim.schedule(0.3, run_task, sim, cpu, "cp", 1.0, results)
    sim.schedule(0.7, run_task, sim, cpu, "cp", 0.25, results)
    sim.run()
    assert results == [(1.3, 1.0), (1.55, pytest.approx(0.85))]


def test_single_task_cannot_use_multiple_cores():
    """A single-threaded task on 4 cores still takes its demand."""
    sim = Simulator()
    cpu = CpuModel(sim, cores=4)
    results = []
    run_task(sim, cpu, "cp", 1.0, results)
    sim.run()
    assert finish_times(results) == [1.0]


def test_parallel_tasks_use_parallel_cores():
    sim = Simulator()
    cpu = CpuModel(sim, cores=4)
    results = []
    for _ in range(4):
        run_task(sim, cpu, "cp", 1.0, results)
    sim.run()
    # Not serialized to t=4.0.
    assert finish_times(results) == [1.0, 1.0, 1.0, 1.0]


def test_overload_queues_tasks_fifo():
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    results = []
    for _ in range(3):
        run_task(sim, cpu, "cp", 1.0, results)
    sim.run()
    assert finish_times(results) == [1.0, 2.0, 3.0]


def test_shorter_task_overtakes_on_a_free_core():
    sim = Simulator()
    cpu = CpuModel(sim, cores=2)
    results = []
    run_task(sim, cpu, "cp", 1.0, results)
    run_task(sim, cpu, "cp", 0.25, results)
    run_task(sim, cpu, "cp", 0.5, results)   # queued until the 0.25 is done
    sim.run()
    assert finish_times(results) == [0.25, 0.75, 1.0]


def test_fluid_demand_served_when_capacity_available():
    sim = Simulator()
    cpu = CpuModel(sim, cores=2)
    cpu.set_fluid_demand("up", "traffic", 1.0)  # 1 core-sec/s on 2 cores
    sim.run(until=1.0)
    assert cpu.fluid_work("up") == (1.0, 1.0)


def test_fluid_demand_clipped_at_capacity():
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    cpu.set_fluid_demand("up", "traffic", 2.0)  # 2 core-sec/s on 1 core
    sim.run(until=1.0)
    assert cpu.fluid_work("up") == (2.0, 1.0)


def test_static_partition_isolates_classes():
    """Control tasks must not borrow idle user-plane cores when partitioned."""
    sim = Simulator()
    cpu = CpuModel(sim, cores=4, partition={"cp": 1, "up": 3})
    results = []
    for _ in range(4):
        run_task(sim, cpu, "cp", 1.0, results)
    sim.run()
    # 4 tasks x 1.0s demand on 1 core => serialized.
    assert finish_times(results) == [1.0, 2.0, 3.0, 4.0]


def test_flexible_mode_shares_idle_capacity():
    sim = Simulator()
    cpu = CpuModel(sim, cores=4)
    results = []
    for _ in range(4):
        run_task(sim, cpu, "cp", 1.0, results)
    cpu.set_fluid_demand("up", "traffic", 0.0)
    sim.run()
    assert finish_times(results) == [1.0, 1.0, 1.0, 1.0]


def test_contention_between_fluid_and_discrete_flexible():
    """Against a saturating fluid class a task gets its max-min half."""
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    cpu.set_fluid_demand("up", "traffic", 1.0)  # saturates the single core
    results = []
    run_task(sim, cpu, "cp", 0.5, results)
    sim.run(until=5.0)
    assert results == [(1.0, 1.0)]
    # The fluid class ran at half rate for 1 s, then alone.
    assert cpu.fluid_work("up") == (5.0, 4.5)
    assert cpu.busy_core_seconds("cp") == 0.5
    assert cpu.busy_core_seconds() == 5.0


def test_light_class_keeps_its_full_demand_under_contention():
    """Max-min: 0.5 core-s/s of fluid is below the fair share of 2 cores
    against 3 runnable tasks, so it is served in full and the tasks split
    the remaining 1.5 cores."""
    sim = Simulator()
    cpu = CpuModel(sim, cores=2)
    cpu.set_fluid_demand("up", "traffic", 0.5)
    results = []
    for _ in range(3):
        run_task(sim, cpu, "cp", 0.75, results)
    sim.run(until=4.0)
    # cp runs 2 at a time (2 cores) at 0.75 core each: done at 1.0; the
    # third then runs alone at full speed.
    assert finish_times(results) == [1.0, 1.0, 1.75]
    assert cpu.fluid_work("up") == (2.0, 2.0)


def test_partition_protects_control_plane_from_fluid():
    sim = Simulator()
    cpu = CpuModel(sim, cores=2, partition={"cp": 1, "up": 1})
    cpu.set_fluid_demand("up", "traffic", 5.0)  # way oversaturated UP pool
    results = []
    run_task(sim, cpu, "cp", 0.5, results)
    sim.run(until=5.0)
    assert results == [(0.5, 0.5)]  # unaffected by user-plane overload
    assert cpu.fluid_work("up") == (25.0, 5.0)  # a fifth served


def test_busy_integral_gives_time_weighted_utilization():
    sim = Simulator()
    cpu = CpuModel(sim, cores=2, name="agw")
    cpu.set_fluid_demand("up", "traffic", 1.0)
    sim.run(until=2.0)
    assert cpu.busy_core_seconds() == 2.0
    assert cpu.busy_core_seconds() / (cpu.cores * 2.0) == 0.5


def test_integrals_are_exact_between_change_points():
    """Reads mid-interval see the exact integral and perturb nothing."""
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    cpu.set_fluid_demand("up", "traffic", 3.0)
    results = []
    run_task(sim, cpu, "cp", 1.0, results)   # half a core until t=2.0
    seen = []

    def read():
        seen.append((cpu.queued_work("cp"), cpu.busy_core_seconds("cp"),
                     cpu.busy_core_seconds(), cpu.fluid_work("up")))

    for t in (0.5, 1.0, 1.5, 3.0):
        sim.schedule(t, read)
    sim.run(until=4.0)
    assert seen == [
        (0.75, 0.25, 0.5, (1.5, 0.25)),
        (0.5, 0.5, 1.0, (3.0, 0.5)),
        (0.25, 0.75, 1.5, (4.5, 0.75)),
        (0.0, 1.0, 3.0, (9.0, 2.0)),
    ]
    assert results == [(2.0, 2.0)]


def test_partition_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        CpuModel(sim, cores=2, partition={"cp": 1, "up": 2})
    with pytest.raises(ValueError):
        CpuModel(sim, cores=2, partition={"cp": -1, "up": 2})
    with pytest.raises(ValueError):
        CpuModel(sim, cores=0)


def test_submit_validation():
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    with pytest.raises(ValueError):
        cpu.submit("cp", 0)
    with pytest.raises(ValueError):
        cpu.set_fluid_demand("up", "x", -1)


def test_queue_depth_and_queued_work():
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    cpu.submit("cp", 1.0)
    cpu.submit("cp", 1.0)
    assert cpu.queue_depth("cp") == 2
    assert cpu.queued_work("cp") == 2.0
    sim.run(until=1.25)
    assert cpu.queue_depth("cp") == 1
    assert cpu.queued_work("cp") == 0.75
    sim.run()
    assert cpu.queue_depth("cp") == 0
    assert cpu.queued_work("cp") == 0.0
    assert cpu.queue_depth("never-seen") == 0
    assert cpu.queued_work("never-seen") == 0.0


def test_cpu_goes_idle_and_wakes_again():
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    results = []
    run_task(sim, cpu, "cp", 0.125, results)
    sim.run()
    assert sim.pending == 0                   # idle: nothing scheduled
    sim.run(until=10.0)
    run_task(sim, cpu, "cp", 0.125, results)
    sim.run()
    assert results == [(0.125, 0.125), (10.125, 0.125)]
    assert sim.pending == 0
    assert cpu.busy_core_seconds() == 0.25


def test_stop_cancels_the_pending_wake():
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    results = []
    run_task(sim, cpu, "cp", 1.0, results)
    sim.run(until=0.25)
    assert sim.pending == 1                   # the one completion wake
    cpu.stop()
    assert sim.pending == 0
    assert sim.run() == 0.25                  # nothing left to advance to
    assert results == []
    assert cpu.busy_core_seconds() == 0.25    # served until stopped


def test_fluid_demand_source_removal():
    sim = Simulator()
    cpu = CpuModel(sim, cores=1)
    cpu.set_fluid_demand("up", "a", 0.4)
    cpu.set_fluid_demand("up", "b", 0.3)
    sim.run(until=1.0)
    assert cpu.fluid_work("up")[0] == pytest.approx(0.7)
    cpu.set_fluid_demand("up", "a", 0.0)
    sim.run(until=2.0)
    assert cpu.fluid_work("up")[0] == pytest.approx(1.0)
