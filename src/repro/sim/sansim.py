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
- **Freelist discipline** — ``release()`` hands the entry back to the
  kernel freelist; the API contract says the caller drops its reference
  *now*.  SimSan interposes a checking handle so a double ``release()``
  or any use after one is reported instead of silently corrupting an
  unrelated recycled timer.

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


class SanHandle:
    """A checking proxy for :class:`ScheduledCall` handed out by sanitized
    ``schedule()``.  Delegates the real work; reports discipline violations."""

    __slots__ = ("_entry", "_san", "_seq", "_released")

    def __init__(self, entry: ScheduledCall, san: "SimSan"):
        self._entry = entry
        self._san = san
        self._seq = entry.seq
        self._released = False

    @property
    def when(self) -> float:
        if self._released:
            self._san._use_after_release(self._seq, "when")
            return 0.0
        return self._entry.when

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def active(self) -> bool:
        if self._released:
            self._san._use_after_release(self._seq, "active")
            return False
        entry = self._entry
        return entry.fn is not None and entry.seq == self._seq

    def cancel(self) -> bool:
        if self._released:
            self._san._use_after_release(self._seq, "cancel")
            return False
        entry = self._entry
        if entry.seq != self._seq or entry.fn is None:
            return False  # already fired (benign, the normal race loser)
        self._san._forget(self._seq)
        return entry.cancel()

    def release(self) -> bool:
        if self._released:
            self._san._double_release(self._seq)
            return False
        self._released = True
        entry = self._entry
        self._entry = None  # the entry may be recycled; never touch it again
        self._san._forget(self._seq)
        if entry.seq != self._seq or entry.fn is None:
            return False
        return entry.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._released else "checking"
        return f"<SanHandle seq={self._seq} {state}>"


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

    def __init__(self, owner: Optional[Process], stack: Optional[str],
                 when: float, site: Tuple[str, int]):
        self.owner = owner
        self.stack = stack
        self.when = when
        self.site = site


class SimSan(Hook):
    """The sanitizer state: pass one to ``Simulator(sanitizer=...)``.

    ``capture_stacks=False`` skips the (expensive) creation-stack capture
    on every tracked ``schedule()`` — reports then carry only the call
    site resolved from the scheduling frame.
    """

    def __init__(self, capture_stacks: bool = True, max_reports: int = 1000):
        self.capture_stacks = capture_stacks
        self.max_reports = max_reports
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
            "checks": ["orphan-timer", "rng-stream-sharing",
                       "release-discipline"],
            "reports": list(self.reports),
            "report_count": len(self.reports),
        }

    def _report(self, check: str, code: str, message: str,
                **extra: Any) -> None:
        if len(self.reports) >= self.max_reports:
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
        stack = None
        site = ("<unknown>", 0)
        if self.capture_stacks:
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
                continue  # untracked (pooled/fire-and-forget) entry
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
        for item in sim._queue:
            entry = item[2]
            if entry.fn is not None:
                yield entry
        for entry in sim._far:
            if entry.fn is not None:
                yield entry
        for slots in sim._wheel_slots:
            for bucket in slots.values():
                for entry in bucket:
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

    # -- release discipline ------------------------------------------------

    def _double_release(self, seq: int) -> None:
        self._report(
            "release-discipline", "SIMSAN03",
            f"double release() of timer handle (seq={seq}): the entry went "
            f"back to the kernel freelist on the first call and may "
            f"already drive an unrelated callback")

    def _use_after_release(self, seq: int, method: str) -> None:
        self._report(
            "release-discipline", "SIMSAN03",
            f"use-after-release: {method}() on timer handle (seq={seq}) "
            f"after release(); the entry may have been recycled for an "
            f"unrelated callback — use cancel() when the handle can "
            f"outlive its revocation site")
