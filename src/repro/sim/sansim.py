"""SimSan: a runtime sanitizer for the discrete-event kernel.

The static tier (reprolint REPRO601/602) proves per-function properties;
SimSan checks the *global* runtime discipline the kernel's fast paths
assume but cannot afford to verify per event:

- **Timer ownership** — every pending non-periodic handle at drain whose
  owning process already exited is an orphan: it will fire as a no-op (or
  worse, act on dead state) and until then it stretches run-until-drain
  and bloats the heap.  This is the PR 6 guard-timer bug class, observed
  live instead of deduced statically.  Orphans are reported with the
  creation stack of the ``schedule()`` call that made them.
- **Cross-process RNG streams** — a named stream drawn by process A, then
  by process B, then by A again is interleaving-dependent: each process's
  observed subsequence changes whenever event order changes, which
  silently breaks replay determinism.  Sequential handoff (A finishes,
  then B draws) is fine and common — per-component streams drawn by
  short-lived procedure processes stay quiet.

Zero cost when off: ``Simulator(sanitizer=SimSan())`` installs the
sanitizer as a :class:`~repro.sim.kernel.Hook` on the kernel's one
dispatch seam — ``scheduled`` wraps each handle and records its owner,
``dispatching`` tracks the running process, ``run_ended`` audits the
survivors.  A simulator without hooks and without a tracer pays one local
test per event for the seam, so the disabled sanitizer costs nothing
measurable; it composes with the profiler and the tracer on one run.

Reports flow through the reprolint machinery: :meth:`SimSan.findings`
yields ``repro.analysis`` ``Finding`` objects (rule ``simsan-*``) and
:meth:`SimSan.to_report` the same JSON shape the lint CLI emits, so CI
treats both tiers uniformly.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, List, Optional, Set, Tuple

from .kernel import Hook, Process, ScheduledCall, SimulationError, Simulator

__all__ = ["SimSan", "SanHandle"]

_MAX_SEEN_DRAWERS = 4096
#: Reports kept; later findings are not recorded.
MAX_REPORTS = 1000


class SanHandle:
    """The :class:`ScheduledCall` proxy sanitized ``schedule()`` hands out:
    cancelling through it drops the timer's ownership record."""

    __slots__ = ("_entry", "_san")

    def __init__(self, entry: ScheduledCall, san: "SimSan"):
        self._entry = entry
        self._san = san

    @property
    def when(self) -> float:
        return self._entry.when

    @property
    def seq(self) -> int:
        return self._entry.seq

    @property
    def active(self) -> bool:
        return self._entry.fn is not None

    def cancel(self) -> bool:
        self._san._forget(self._entry.seq)
        return self._entry.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SanHandle seq={self._entry.seq}>"


class _SanStream:
    """Wrapper around one named ``random.Random`` stream: records which
    process draws from it and reports interleaved cross-process use."""

    def __init__(self, san: "SimSan", name: str, rng: Any):
        self._san = san
        self._name = name
        self._rng = rng

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._rng, attr)
        if not callable(value):
            return value
        san = self._san
        name = self._name

        def drawing(*args: Any, **kwargs: Any) -> Any:
            san._note_rng_use(name)
            return value(*args, **kwargs)

        return drawing


class _TimerRecord:
    __slots__ = ("owner", "stack", "when", "site")

    def __init__(self, owner: Optional[Process], stack: str,
                 when: float, site: Tuple[str, int]):
        self.owner = owner
        self.stack = stack
        self.when = when
        self.site = site


class SimSan(Hook):
    """The sanitizer state: pass one to ``Simulator(sanitizer=...)``.

    Every tracked ``schedule()`` captures its creation stack, so an
    orphan-timer report names the code that armed the timer.
    """

    def __init__(self):
        self.reports: List[Dict[str, Any]] = []
        self.current: Optional[Process] = None  # process being resumed
        self._timers: Dict[int, _TimerRecord] = {}
        self._reported_orphans: Set[int] = set()
        # stream name -> (last drawer, set of past drawers, reported flag)
        self._rng_streams: Dict[str, List[Any]] = {}
        self._sim: Optional[Simulator] = None

    # -- wiring ------------------------------------------------------------

    def attach(self, sim: Simulator) -> None:
        if self._sim is not None and self._sim is not sim:
            raise SimulationError("one SimSan instance per Simulator")
        self._sim = sim

    def watch_rng(self, registry: Any) -> Any:
        """Interpose on ``registry.stream`` so every named stream reports
        its drawers.  Returns the registry for chaining."""
        original = registry.stream
        proxies: Dict[str, _SanStream] = {}

        def stream(name: str) -> _SanStream:
            proxy = proxies.get(name)
            if proxy is None:
                proxy = _SanStream(self, name, original(name))
                proxies[name] = proxy
            return proxy

        registry.stream = stream
        return registry

    # -- results -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.reports

    def findings(self) -> List[Any]:
        """Reports as ``repro.analysis`` Finding objects (rule simsan-*)."""
        from ..analysis.core import Finding
        out = []
        for report in self.reports:
            out.append(Finding(
                rule=f"simsan-{report['check']}",
                code=report["code"],
                path=report.get("path", "<runtime>"),
                line=int(report.get("line", 0)),
                col=0,
                message=report["message"]))
        return out

    def to_report(self) -> Dict[str, Any]:
        """The reprolint JSON report shape, for CI artifact parity."""
        return {
            "tool": "simsan",
            "version": 1,
            "checks": ["orphan-timer", "rng-stream-sharing"],
            "reports": list(self.reports),
            "report_count": len(self.reports),
        }

    def _report(self, check: str, code: str, message: str,
                **extra: Any) -> None:
        if len(self.reports) >= MAX_REPORTS:
            return
        entry: Dict[str, Any] = {"check": check, "code": code,
                                 "message": message}
        entry.update(extra)
        self.reports.append(entry)
        # Flight recorder auto-snapshot: every sanitizer report ships its
        # last-N-events context (attribute read, no flightrec import).
        rec = self._sim.recorder if self._sim is not None else None
        if rec is not None:
            fields = {k: v for k, v in entry.items() if k != "stack"}
            rec.node("simsan").error("simsan", code, **fields)
            rec.snapshot(f"simsan:{code}")

    # -- timer ownership ---------------------------------------------------

    def scheduled(self, handle: ScheduledCall) -> SanHandle:
        site = ("<unknown>", 0)
        # Drop the sanitizer/schedule frames; keep the caller upward.
        frames = traceback.extract_stack()[:-2]
        if frames:
            site = (frames[-1].filename, frames[-1].lineno or 0)
        stack = "".join(traceback.format_list(frames[-6:]))
        self._timers[handle.seq] = _TimerRecord(self.current, stack,
                                                handle.when, site)
        # With a flight recorder installed, every tracked schedule leaves a
        # breadcrumb carrying the resolved scheduling site; the record picks
        # up the ambient span context, so an orphan-timer report's snapshot
        # ends with the trace-correlated site that armed the timer.
        rec = self._sim.recorder if self._sim is not None else None
        if rec is not None:
            owner = self.current
            rec.node(owner.name if owner is not None else "kernel").debug(
                "kernel", "timer.scheduled",
                site=f"{site[0]}:{site[1]}", when=handle.when)
        return SanHandle(handle, self)

    def dispatching(self, seq: int, fn: Any) -> None:
        self._timers.pop(seq, None)
        owner = getattr(fn, "__self__", None)
        self.current = owner if isinstance(owner, Process) else None

    def dispatched(self) -> None:
        self.current = None

    def run_ended(self) -> None:
        self.check_drain(self._sim)

    def _forget(self, seq: int) -> None:
        self._timers.pop(seq, None)

    def check_drain(self, sim: Simulator) -> None:
        """Scan pending entries for orphans: tracked non-periodic timers
        whose owning process has already exited."""
        for entry in self._iter_pending(sim):
            record = self._timers.get(entry.seq)
            if record is None:
                continue  # untracked (fire-and-forget or periodic) entry
            owner = record.owner
            if owner is None or not owner.triggered:
                continue
            if entry.seq in self._reported_orphans:
                continue
            self._reported_orphans.add(entry.seq)
            path, line = record.site
            message = (f"orphaned timer: entry scheduled at "
                       f"{path}:{line} for t={record.when:g} is still "
                       f"pending but its owner process "
                       f"'{owner.name}' already exited; cancel it when "
                       f"the owner finishes (finally-revoke) or hand it "
                       f"to a live owner")
            self._report("orphan-timer", "SIMSAN01", message,
                         path=path, line=line, when=record.when,
                         owner=owner.name, stack=record.stack)

    @staticmethod
    def _iter_pending(sim: Simulator):
        # The lane is not walked: its entries are fire-and-forget
        # (``call_later(0.0, ...)`` and trigger callbacks), never a handle
        # ``schedule()`` returned, so none of them is a tracked timer.
        for item in sim._queue:
            entry = item[2]
            if entry.fn is not None:
                yield entry
        for entry in sim._far:
            if entry.fn is not None:
                yield entry

    # -- RNG stream sharing ------------------------------------------------

    def _note_rng_use(self, name: str) -> None:
        owner = self.current
        if owner is None:
            return  # top-level / aggregate callbacks are not processes
        state = self._rng_streams.get(name)
        if state is None:
            self._rng_streams[name] = [owner, {owner}, False]
            return
        last, seen, reported = state
        if owner is not last:
            if not reported and owner in seen:
                state[2] = True
                self._report(
                    "rng-stream-sharing", "SIMSAN02",
                    f"RNG stream '{name}' is drawn by interleaved "
                    f"processes ('{owner.name}' resumed drawing after "
                    f"'{last.name}'): each one's draw subsequence now "
                    f"depends on event interleaving, breaking replay "
                    f"determinism — give each process its own named "
                    f"stream")
            if len(seen) < _MAX_SEEN_DRAWERS:
                seen.add(owner)
            state[0] = owner
