"""The event-driven CPU model is the quantum -> 0 limit of the stepped one.

The retired time-stepped model (``reference_cpu.QuantizedCpuModel``) runs
the same seeded schedule of task arrivals and fluid-rate steps at ever
finer quanta; its worst completion-time gap to the event model must shrink
in proportion to the quantum.  Nothing here depends on wall time.
"""

import math
import random

import pytest

from repro.sim import CpuModel, Simulator

from reference_cpu import QuantizedCpuModel

CORES = 4
QUANTA = (0.002, 0.001, 0.0005, 0.00025)


def random_schedule(seed, tasks=200, horizon=10.0):
    """Two classes of tasks (0.5 ms - 0.4 s of demand, log-uniform) arriving
    over ``horizon`` seconds while the user-plane fluid rate steps between
    idle and three cores: the 4-core pool is overloaded much of the time."""
    rng = random.Random(seed)
    events = []
    for _ in range(tasks):
        demand = math.exp(rng.uniform(math.log(0.0005), math.log(0.4)))
        events.append((rng.uniform(0.0, horizon), "task",
                       rng.choice(("cp", "up")), demand))
    t = 0.0
    while t < horizon:
        events.append((t, "fluid", "up", rng.choice((0.0, 0.5, 1.5, 3.0))))
        t += rng.uniform(0.3, 1.5)
    events.append((horizon, "fluid", "up", 0.0))
    return sorted(events)


def completion_times(make_cpu, events):
    sim = Simulator()
    cpu = make_cpu(sim)
    finished = {}

    def fire(index, kind, cls, value):
        if kind == "fluid":
            cpu.set_fluid_demand(cls, "steps", value)
        else:
            cpu.submit(cls, value).add_callback(
                lambda _done: finished.__setitem__(index, sim.now))

    for index, (t, kind, cls, value) in enumerate(events):
        sim.schedule_at(t, fire, index, kind, cls, value)
    sim.run()
    return finished


@pytest.mark.parametrize("partition", [None, {"cp": 1, "up": 3}],
                         ids=["flexible", "static"])
@pytest.mark.parametrize("seed", [1, 2])
def test_reference_converges_on_event_model_as_quantum_halves(seed, partition):
    events = random_schedule(seed)
    exact = completion_times(
        lambda sim: CpuModel(sim, CORES, partition=partition), events)
    assert len(exact) == 200
    gaps = []
    for quantum in QUANTA:
        stepped = completion_times(
            lambda sim: QuantizedCpuModel(sim, CORES, quantum,
                                          partition=partition), events)
        assert stepped.keys() == exact.keys()
        gaps.append(max(abs(stepped[i] - exact[i]) for i in exact))
    # Measured: 0.094 / 0.048 / 0.025 / 0.013 s (flexible, seed 1).
    for coarse, fine in zip(gaps, gaps[1:]):
        assert fine <= 0.6 * coarse
    assert gaps[-1] <= 0.02


def test_reference_is_never_exact_where_the_event_model_is():
    """One 83 ms task (an attach stage) alone on the box: the stepped model
    announces it on its grid, two quanta out; the event model at 83 ms."""
    events = [(0.0, "task", "cp", 0.083)]
    assert completion_times(lambda sim: CpuModel(sim, CORES), events) \
        == {0: 0.083}
    stepped = completion_times(
        lambda sim: QuantizedCpuModel(sim, CORES, 0.05), events)
    assert stepped == {0: pytest.approx(0.1)}
