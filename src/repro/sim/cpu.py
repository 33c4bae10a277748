"""Event-driven multi-core CPU model.

The paper's performance results (Figs. 5-8) are all about contention between
*control-plane* work (discrete tasks: processing an attach request, including
authentication crypto) and *user-plane* work (a fluid load: forwarding UE
traffic) on a small number of commodity cores.  This module models exactly
that contention.

- **Discrete tasks** (:meth:`CpuModel.submit`) carry a service demand in
  core-seconds and belong to a named class (e.g. ``"cp"``).  Tasks are served
  FIFO within their class; at most one core serves a task at a time (an
  attach cannot be parallelized), so a class with *n* cores runs at most
  *n* tasks concurrently and queues the rest.
- **Fluid demand** (:meth:`CpuModel.set_fluid_demand`) models packet
  forwarding: a continuous work *rate* in core-seconds per second.
- **Scheduling**: with ``partition=None`` (the "flexible" kernel scheduler of
  Figs. 7-8) all classes share every core, max-min fairly (a light class gets
  its full demand, heavy classes split the rest), each dividing its share
  evenly over its running tasks and fluid load.  With a static partition
  (``{"up": 3, "cp": 1}``) a class may only use its own cores and spare
  capacity in one pool is *not* available to the other - reproducing the
  trade-off the paper measures.

Service rates change only when a task starts to run, a task completes or a
fluid rate changes (DESIGN.md §6.10).  Between such change points every
running task of a class is served at one constant rate, so a class keeps a
*virtual service clock* (``vtime += scale * elapsed``), a task that starts to
run is tagged with the ``vtime`` at which it will be done, and the model holds
one kernel entry, at the earliest completion (none under fluid demand alone).
Nothing is sampled: per-class *integrals* - busy, offered-fluid and
served-fluid core-seconds - are exact whenever they are read, and a reader
takes the difference over its own window (:meth:`CpuModel.fluid_work` for
offered and served fluid work).
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from math import inf
from typing import Deque, Dict, List, Optional, Tuple

from .fairshare import max_min_share
from .kernel import Event, ScheduledCall, Simulator

# A running task this close (core-seconds) to its finish tag is complete;
# the guard is in virtual time so a wake can never re-arm at the same instant.
_DONE_EPS = 1e-9


class _Class:
    """One work class: its tasks, fluid sources, service clock, integrals."""

    __slots__ = ("cores", "limit", "running", "waiting", "fluid", "rate",
                 "scale", "vtime", "work", "busy", "offered", "served",
                 "work_rate", "busy_rate")

    def __init__(self, cores: float):
        self.cores = cores                 # the most this class may ever use
        self.limit = max(1, int(cores))    # tasks that may run concurrently
        # (finish tag, submit order, submit time, done), earliest finish first
        self.running: List[Tuple[float, int, float, Event]] = []
        # (demand, submit time, done), first come first served
        self.waiting: Deque[Tuple[float, float, Event]] = deque()
        self.fluid: Dict[str, float] = {}  # source -> core-sec/s
        self.rate = 0.0                    # total fluid rate
        self.scale = 1.0                   # service rate per unit of demand
        self.vtime = 0.0                   # service one running task has seen
        # Integrals as of the model's last change point, and their slopes:
        self.work = self.work_rate = 0.0       # discrete core-seconds left
        self.busy = self.busy_rate = 0.0       # core-seconds served, all work
        self.offered = self.served = 0.0       # fluid core-seconds asked, given


class CpuModel:
    """Event-driven processor sharing on a small multi-core CPU."""

    def __init__(self, sim: Simulator, cores: float,
                 partition: Optional[Dict[str, float]] = None, name: str = "cpu"):
        if cores <= 0:
            raise ValueError("cores must be positive")
        if partition is not None:
            total = sum(partition.values())
            if total - cores > 1e-9:
                raise ValueError(f"partition uses {total} cores but CPU has {cores}")
            if any(v < 0 for v in partition.values()):
                raise ValueError("partition core counts must be >= 0")
        self.sim = sim
        self.cores = float(cores)
        self.partition = dict(partition) if partition else None
        self.name = name
        self._classes: Dict[str, _Class] = {}
        self._changed_at = sim.now         # the last change point
        self._submitted = 0
        self._wake: Optional[ScheduledCall] = None
        self._wake_for: Optional[Tuple[Event, float]] = None
        self._stopped = False

    # -- public API ---------------------------------------------------------

    def submit(self, cls: str, demand: float) -> Event:
        """Enqueue a discrete task; the returned event fires on completion
        with the task's sojourn time (queueing + service) as its value."""
        if demand <= 0:
            raise ValueError("task demand must be positive")
        done = Event(self.sim, f"{self.name}.task.{cls}")
        now = self.sim.now
        c = self._class(cls)
        c.work += demand
        if len(c.running) >= c.limit:
            # Behind a full runnable set no service rate changes.
            c.waiting.append((demand, now, done))
        else:
            self._advance(now)
            self._start(c, demand, now, done)
            self._replan()
        return done

    def set_fluid_demand(self, cls: str, source: str, rate: float) -> None:
        """Set the continuous work rate (core-sec/s) offered by ``source``."""
        if rate < 0:
            raise ValueError("fluid rate must be >= 0")
        c = self._class(cls)
        c.fluid[source] = rate
        total = sum(c.fluid.values())
        if total != c.rate:
            self._advance(self.sim.now)
            c.rate = total
            self._replan()

    def fluid_work(self, cls: str) -> Tuple[float, float]:
        """Cumulative ``(offered, served)`` fluid core-seconds of ``cls``."""
        c = self._class(cls)
        dt = self.sim.now - self._changed_at
        return c.offered + c.rate * dt, c.served + c.rate * c.scale * dt

    def busy_core_seconds(self, cls: Optional[str] = None) -> float:
        """Cumulative core-seconds served to ``cls`` (default: every class)."""
        dt = self.sim.now - self._changed_at
        return sum(c.busy + c.busy_rate * dt for name, c in self._classes.items()
                   if cls is None or name == cls)

    def queue_depth(self, cls: str) -> int:
        c = self._class(cls)
        return len(c.running) + len(c.waiting)

    def queued_work(self, cls: str) -> float:
        """Outstanding core-seconds of discrete work for ``cls``."""
        c = self._class(cls)
        return max(0.0, c.work - c.work_rate * (self.sim.now - self._changed_at))

    def stop(self) -> None:
        """Stop serving (used when tearing down an experiment)."""
        self._advance(self.sim.now)
        self._stopped = True
        self._replan()

    # -- internals -----------------------------------------------------------

    def _class(self, cls: str) -> _Class:
        c = self._classes.get(cls)
        if c is None:
            cores = self.partition.get(cls, 0.0) if self.partition else self.cores
            c = self._classes[cls] = _Class(cores)
        return c

    def _start(self, c: _Class, demand: float, since: float, done: Event) -> None:
        self._submitted += 1
        insort(c.running, (c.vtime + demand, self._submitted, since, done))

    def _advance(self, now: float) -> None:
        """Bring every clock and integral up to ``now``."""
        dt = now - self._changed_at
        if dt > 0:
            self._changed_at = now
            for c in self._classes.values():
                c.vtime += c.scale * dt
                c.work -= c.work_rate * dt
                c.busy += c.busy_rate * dt
                c.offered += c.rate * dt
                c.served += c.rate * c.scale * dt

    def _replan(self) -> None:
        """Recompute service rates and (re)arm the one completion wake."""
        classes = self._classes
        needs = {}
        total = 0.0
        for name, c in classes.items():
            needs[name] = need = len(c.running) + c.rate
            total += need
        # A class may use its own cores (static partition) or, when the
        # shared pool is oversubscribed, its max-min share of them.
        shares = None
        if self.partition is None and total > self.cores:
            shares = max_min_share(needs, self.cores)
        first, delay = None, inf
        for name, c in classes.items():
            tasks = len(c.running)
            need = needs[name]
            cap = 0.0 if self._stopped else shares[name] if shares else c.cores
            scale = 1.0 if need <= cap else cap / need
            c.scale = scale
            c.work_rate = tasks * scale
            c.busy_rate = need * scale
            if tasks and scale > 0:
                due = (c.running[0][0] - c.vtime) / scale
                if due < delay:
                    first, delay = c, due
        # The pending wake stays when it is still for the same task served
        # at the same rate: its completion time has not moved.
        wake_for = (first.running[0][3], first.scale) if first else None
        if wake_for != self._wake_for:
            self._wake_for = wake_for
            if self._wake is not None:
                self._wake.cancel()
            # Rounding can leave a head a hair past due: then wake at once.
            self._wake = None if first is None else self.sim.schedule(
                delay if delay > 0 else 0.0, self._on_wake)

    def _on_wake(self) -> None:
        self._wake = self._wake_for = None
        now = self.sim.now
        self._advance(now)
        for c in self._classes.values():
            running = c.running
            while running and running[0][0] - c.vtime <= _DONE_EPS:
                _tag, _order, since, done = running.pop(0)
                done.succeed(now - since)
                if c.waiting:
                    self._start(c, *c.waiting.popleft())
                elif not running:
                    c.work = 0.0  # shed the rounding residue of the integral
        self._replan()
