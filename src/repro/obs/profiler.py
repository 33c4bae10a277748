"""Wall-clock self-profiler: charge host CPU time to the code that owns it.

"As fast as the hardware allows" is a claim until it is a breakdown.
The profiler is a :class:`~repro.sim.kernel.Hook` on the kernel's one
dispatch seam, added like any other hook::

    prof = Profiler()
    sim.add_hook(prof)
    sim.run(until=...)
    prof.report()["subsystems"]     # {"core.agw.mme": {...}, ...}

Each callback the loop fires is charged to the module that owns it,
keyed by module path with ``repro.`` stripped (``net.rpc``,
``core.agw.mme``): a process resume to its generator's module, a
:class:`~repro.sim.kernel.PeriodicCall` tick to its callback's module,
anything else to the callback's own module.  What has no module of its
own (timeouts, event fan-out, builtins) and the loop between callbacks
(far-buffer flushes, pops) is ``sim.kernel``.

Accounting is *self-time* at callback granularity: work a callback does
in other modules (an RPC it sizes, a digest it hashes) is the
callback's.  Sans-IO code that runs with no kernel is invisible here;
``benchmarks/e2e/layertrace.py`` attributes every call of such runs.
The profiler reads the host clock (``time.perf_counter``) - it measures
the simulator from outside, and nothing in simulation behaviour may
depend on its readings, so those calls carry ``reprolint`` pragmas.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict

from ..sim.kernel import Hook, PeriodicCall, Process

#: The key of the loop itself and of callbacks with no module of their own.
KERNEL = "sim.kernel"


def _key_of(module: Any) -> str:
    if not isinstance(module, str):
        return KERNEL
    prefix = "repro."
    return module[len(prefix):] if module.startswith(prefix) else module


def owner_of(fn: Callable) -> str:
    """The profile key of the module that owns callback ``fn``."""
    target = getattr(fn, "__self__", None)
    if isinstance(target, Process):
        frame = getattr(target.generator, "gi_frame", None)
        return KERNEL if frame is None else \
            _key_of(frame.f_globals.get("__name__"))
    if isinstance(target, PeriodicCall):
        fn = target.fn
    return _key_of(getattr(fn, "__module__", None))


class Profiler(Hook):
    """Self-time and dispatch counts per owner module."""

    __slots__ = ("self_s", "calls", "_key", "_mark")

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._key = KERNEL
        self._mark = 0.0

    # The perf_counter() reads below are the profiler's entire contact
    # with the host clock; see the module docstring.

    def _charge(self, key: str) -> None:
        """Charge the slice since the last mark to the current key, then
        make ``key`` current."""
        now = time.perf_counter()  # reprolint: disable=no-wallclock
        current = self._key
        self.self_s[current] = \
            self.self_s.get(current, 0.0) + (now - self._mark)
        self._key = key
        self._mark = now

    def run_started(self) -> None:
        self._key = KERNEL
        self._mark = time.perf_counter()  # reprolint: disable=no-wallclock

    def run_ended(self) -> None:
        self._charge(KERNEL)

    def dispatching(self, seq: int, fn: Callable) -> None:
        key = owner_of(fn)
        self.calls[key] = self.calls.get(key, 0) + 1
        self._charge(key)

    def dispatched(self) -> None:
        self._charge(KERNEL)

    def report(self) -> Dict[str, Any]:
        """Self-time, share and dispatch count per owner, largest first."""
        total = sum(self.self_s.values())
        subsystems = {
            key: {"self_s": secs,
                  "share": secs / total if total > 0 else 0.0,
                  "calls": self.calls.get(key, 0)}
            for key, secs in sorted(self.self_s.items(),
                                    key=lambda kv: -kv[1])}
        return {"total_s": total, "subsystems": subsystems}
