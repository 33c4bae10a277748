"""Reference integrator for the CPU model: the retired time-stepped model.

``repro.sim.cpu`` used to advance in fixed quanta: every ``quantum`` seconds
it gathered each class's runnable tasks and fluid rate, shared the pool
max-min between classes and served one quantum's worth of work.  It is kept
here, out of the product, as the fine-step oracle for the event-driven
model (``test_sim_cpu_oracle.py``): as ``quantum`` -> 0 its completion times
converge on the event model's.  Only what the comparison needs survives -
no monitor, no idle/stop handling beyond letting the ticker lapse.

Known step artefacts, all O(quantum) and the reason the product no longer
works this way: a task that arrives mid-quantum is served as if it had been
there for the whole quantum, a task holds its core slot until the end of
the quantum in which it finishes, and completions are only announced on
the tick grid.
"""

from collections import deque

from repro.sim.fairshare import max_min_share


class QuantizedCpuModel:
    """Time-stepped processor sharing; same ``submit``/``set_fluid_demand``."""

    def __init__(self, sim, cores, quantum, partition=None):
        self.sim = sim
        self.cores = float(cores)
        self.quantum = quantum
        self.partition = dict(partition) if partition else None
        self._queues = {}    # cls -> deque of [remaining, done]
        self._fluid = {}     # cls -> source -> rate
        self._ticking = False

    def submit(self, cls, demand):
        done = self.sim.event(f"reference.task.{cls}")
        self._queues.setdefault(cls, deque()).append([demand, done])
        self._ensure_ticking()
        return done

    def set_fluid_demand(self, cls, source, rate):
        per_source = self._fluid.setdefault(cls, {})
        if rate == 0.0:
            per_source.pop(source, None)
        else:
            per_source[source] = rate
        self._ensure_ticking()

    def _ensure_ticking(self):
        if not self._ticking:
            self._ticking = True
            self.sim.call_later(self.quantum, self._tick)

    def _pools(self):
        if self.partition is None:
            classes = set(self._queues) | set(self._fluid)
            yield self.cores, tuple(sorted(classes))
        else:
            for cls, cores in self.partition.items():
                yield cores, (cls,)

    def _tick(self):
        for cores, classes in self._pools():
            self._serve_pool(cores, classes, self.quantum)
        if any(self._queues.values()) or any(self._fluid.values()):
            self.sim.call_later(self.quantum, self._tick)
        else:
            self._ticking = False

    def _serve_pool(self, cores, classes, dt):
        capacity = cores * dt
        if capacity <= 0:
            return
        max_parallel = max(1, int(cores))
        slices = {}
        runnable = {}
        for cls in classes:
            tasks = list(self._queues.get(cls, ()))[:max_parallel]
            runnable[cls] = tasks
            fluid = sum(self._fluid.get(cls, {}).values()) * dt
            slices[cls] = sum(min(t[0], dt) for t in tasks) + fluid
        if sum(slices.values()) <= 0:
            return
        grants = max_min_share(slices, capacity)
        for cls in classes:
            need = slices[cls]
            scale = min(1.0, grants.get(cls, 0.0) / need) if need > 0 else 0.0
            for task in runnable[cls]:
                task[0] -= min(task[0], dt) * scale
                if task[0] <= 1e-12:
                    self._queues[cls].remove(task)
                    task[1].succeed(self.sim.now)
