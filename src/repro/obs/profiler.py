"""Wall-clock self-profiler: attribute host CPU time to subsystems.

"As fast as the hardware allows" is a claim until it is a breakdown.
This module turns a run into flame-style per-subsystem shares of host
wall-clock time — kernel loop vs. dispatch vs. RPC serialization vs.
digest hashing vs. fleet ticks vs. tracer overhead — committed per-PR as
``BENCH_profile.json`` so regressions show up as a share shift, not a
vibe.

Two integration layers:

- **Kernel**: :func:`install` adds the profiler as a
  :class:`~repro.sim.kernel.Hook` on the simulator's dispatch seam:
  ``kernel.loop`` brackets each run, ``kernel.dispatch`` each callback
  (timer-wheel flushes are loop time).  It composes with the sanitizer
  and the tracer on the same simulator.
- **Subsystems** (RPC, digest sync, fleet ticks, tracer): module-level
  hooks read ``profiler.ACTIVE``; when it is ``None`` (the default) the
  cost is one global load and an ``is None`` test.

Accounting is *self-time*: entering a child scope charges the elapsed
slice to the parent, so a scope's number is time spent in its own code,
and flame paths (``kernel.loop;kernel.dispatch;rpc.deliver``) preserve
the nesting.  The profiler deliberately reads the host clock
(``time.perf_counter``) — it measures the simulator, it does not run
inside it, and nothing in simulation behaviour may depend on its
readings.  Those calls carry ``reprolint`` pragmas for exactly that
reason.

Only one profiler can be active per process (the ``ACTIVE`` global is
how zero-touch subsystem hooks find it); :func:`detach` removes the hook
and clears the global.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from ..sim.kernel import Hook, Simulator

# The process-wide active profiler; subsystem hooks poll this.  None when
# profiling is off, which must stay the cheap path.
ACTIVE: Optional["Profiler"] = None


class Profiler(Hook):
    """Scoped self-time counters keyed by flame path."""

    __slots__ = ("self_s", "calls", "_stack", "_mark")

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._stack: List[str] = []
        self._mark = 0.0

    # The two perf_counter() reads below are the profiler's entire contact
    # with the host clock.  They are exempt from the no-wallclock rule by
    # design: the profiler measures the simulator from outside, and no
    # simulated behaviour may depend on its readings (the byte-identical
    # disabled-path canaries in BENCH_profile.json enforce that).

    def push(self, key: str) -> None:
        """Enter scope ``key``; charges the elapsed slice to the parent."""
        now = time.perf_counter()  # reprolint: disable=no-wallclock
        stack = self._stack
        if stack:
            parent = stack[-1]
            self.self_s[parent] = \
                self.self_s.get(parent, 0.0) + (now - self._mark)
            path = parent + ";" + key
        else:
            path = key
        stack.append(path)
        self.calls[path] = self.calls.get(path, 0) + 1
        self._mark = now

    def pop(self) -> None:
        """Leave the current scope; charges the elapsed slice to it."""
        now = time.perf_counter()  # reprolint: disable=no-wallclock
        path = self._stack.pop()
        self.self_s[path] = self.self_s.get(path, 0.0) + (now - self._mark)
        self._mark = now

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        del self._stack[:]
        self._mark = 0.0

    # -- kernel hook -----------------------------------------------------------

    def run_started(self) -> None:
        self.push("kernel.loop")

    def run_ended(self) -> None:
        self.pop()

    def dispatching(self, seq: int, fn: Any) -> None:
        self.push("kernel.dispatch")

    def dispatched(self) -> None:
        self.pop()

    # -- reporting -------------------------------------------------------------

    def subsystems(self) -> Dict[str, Dict[str, float]]:
        """Self-time aggregated by leaf scope key (last flame segment)."""
        agg: Dict[str, Dict[str, float]] = {}
        for path, secs in self.self_s.items():
            leaf = path.rsplit(";", 1)[-1]
            row = agg.get(leaf)
            if row is None:
                row = agg.setdefault(leaf, {"self_s": 0.0, "calls": 0})
            row["self_s"] += secs
            row["calls"] += self.calls.get(path, 0)
        return agg

    def report(self) -> Dict[str, Any]:
        """Shares per subsystem plus the raw flame rows, largest first."""
        total = sum(self.self_s.values())
        subsystems = {}
        for leaf, row in sorted(self.subsystems().items(),
                                key=lambda kv: -kv[1]["self_s"]):
            subsystems[leaf] = {
                "self_s": row["self_s"],
                "share": row["self_s"] / total if total > 0 else 0.0,
                "calls": row["calls"],
            }
        flame = [{"path": path, "self_s": secs,
                  "calls": self.calls.get(path, 0)}
                 for path, secs in sorted(self.self_s.items(),
                                          key=lambda kv: -kv[1])]
        return {"total_s": total, "subsystems": subsystems, "flame": flame}


def install(sim: Simulator, profiler: Optional[Profiler] = None) -> Profiler:
    """Attach a (new, by default) profiler to ``sim``; returns it."""
    global ACTIVE
    if profiler is None:
        profiler = Profiler()
    if ACTIVE is not None and ACTIVE is not profiler:
        raise ValueError("another profiler is already active in this process")
    sim.add_hook(profiler)
    ACTIVE = profiler
    return profiler


def detach(sim: Simulator) -> Optional[Profiler]:
    """Undo :func:`install`: remove the hook, clear ACTIVE."""
    global ACTIVE
    prof = ACTIVE
    if prof is None or not sim.remove_hook(prof):
        return None
    ACTIVE = None
    return prof
