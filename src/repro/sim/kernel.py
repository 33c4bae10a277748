"""Discrete-event simulation kernel.

Everything in this reproduction runs on top of this kernel: protocol state
machines, RPC channels, CPU models, and workload generators are all simulated
processes exchanging events in virtual time.

The design follows the classic event-list pattern:

- A :class:`Simulator` owns a priority queue of timestamped callbacks and a
  virtual clock (``now``, in seconds).
- A :class:`Process` wraps a Python generator.  The generator *yields*
  awaitable objects (:class:`Timeout`, :class:`Event`, another
  :class:`Process`, :class:`AnyOf`/:class:`AllOf`) and is resumed when the
  awaited thing completes.  The value sent back into the generator is the
  payload of the completed awaitable.
- Processes may be interrupted (:meth:`Process.interrupt`), which raises
  :class:`Interrupted` inside the generator at its current yield point.

Example::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        return "done"

    proc = sim.spawn(worker(sim))
    sim.run()
    assert proc.value == "done"
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional

_INF = float("inf")

# Timer-wheel geometry.  Delays shorter than the cutoff go straight to the
# heap (they are about to fire anyway); longer delays park in a hashed
# hierarchical wheel — per-level dicts of slot-index -> entry list — and only
# migrate into the heap when the clock approaches their slot.  The payoff is
# the dominant schedule-then-cancel pattern (RPC deadlines/retries, guard
# timers): a cancelled entry parked in the wheel is dropped at slot flush
# without ever touching the heap, so it costs O(1) total instead of a
# heappush + heappop at ~100k-entry heap depth.
_WHEEL_CUTOFF = 0.25
_WHEEL_WIDTHS = (0.25, 4.0, 64.0, 1024.0)
_POOL_MAX = 16384


class SimulationError(Exception):
    """Base class for kernel-level errors."""


class ScheduledCall:
    """Cancelable handle for one scheduled callback.

    Returned by :meth:`Simulator.schedule`.  ``cancel()`` is O(1): it marks
    the entry dead where it sits (heap or timer wheel); the kernel drops dead
    entries without executing them and without advancing the clock to their
    deadline, so a drained run ends at the last *live* event.
    """

    __slots__ = ("sim", "when", "seq", "fn", "args", "ctx", "_pooled")

    def __init__(self, sim: "Simulator", when: float, seq: int, fn, args,
                 ctx, pooled: bool = False):
        self.sim = sim
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.ctx = ctx
        self._pooled = pooled

    @property
    def active(self) -> bool:
        """True while the callback is still pending (not fired, not cancelled)."""
        return self.fn is not None

    def cancel(self) -> bool:
        """Cancel the pending callback.  Returns True if it was still pending;
        cancelling an already-fired or already-cancelled call is a no-op."""
        if self.fn is None:
            return False
        self.fn = None
        self.args = ()
        self.ctx = None
        sim = self.sim
        sim._live -= 1
        # Amortized compaction: every 16384 cancels, check whether dead
        # entries are the physical majority and sweep them out if so, so
        # cancellation actually reclaims memory instead of leaving corpses
        # parked in wheel slots until their original deadline.  The far-buffer
        # flush already recycles corpses cancelled before their first
        # organize, so the threshold is deliberately lazy — the sweep is for
        # long-lived wheel corpses, not the common cancel-quickly pattern.
        sim._dead += 1
        if sim._dead > 16384:
            physical = len(sim._queue) + sim._wheel_count + len(sim._far)
            if (physical - sim._live) * 2 > physical:
                sim._compact()
            else:
                sim._dead = 0
        return True

    def release(self) -> bool:
        """:meth:`cancel`, plus hand the entry back to the kernel freelist.

        The caller asserts it is dropping its reference *now*: the object
        will be recycled for unrelated callbacks once the kernel unlinks it,
        so any later method call on the handle is undefined behaviour.  Use
        it for the schedule-then-revoke pattern where the handle provably
        does not outlive its owner (the RPC layer's per-call deadline and
        retry timers); when in doubt, use :meth:`cancel`.
        """
        if self.fn is None:
            return False
        self.fn = None
        self.args = ()
        self.ctx = None
        self._pooled = True  # recyclable at whichever drop site finds it
        sim = self.sim
        sim._live -= 1
        sim._dead += 1
        if sim._dead > 16384:
            physical = len(sim._queue) + sim._wheel_count + len(sim._far)
            if (physical - sim._live) * 2 > physical:
                sim._compact()
            else:
                sim._dead = 0
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.fn is not None else "dead"
        return f"<ScheduledCall @{self.when:g} {state}>"


# Allocation shortcut for the scheduling hot paths: __new__ + direct slot
# stores skips the __init__ call frame.
_new_entry = ScheduledCall.__new__


class PeriodicCall:
    """A self-rescheduling callback: ``fn(*args)`` every ``period`` seconds.

    Built for batched cohort/fleet ticks: one wrapper object drives an
    arbitrary number of aggregate state machines from a single kernel
    timer, and every reschedule rides the pooled fire-and-forget path
    (:meth:`Simulator.call_later`), so steady-state ticking allocates
    nothing — unlike a ``Timeout``-per-tick coroutine loop, which builds
    an event object and a callback list every period.

    ``cancel()`` stops the chain; at most one already-pooled entry remains
    queued and fires as a cheap no-op (pooled entries cannot be revoked,
    by design).  The first tick fires at ``now + period``.
    """

    __slots__ = ("sim", "period", "fn", "args", "_active")

    def __init__(self, sim: "Simulator", period: float, fn: Callable,
                 args: tuple):
        if period <= 0:
            raise ValueError(f"periodic call needs a positive period: {period}")
        self.sim = sim
        self.period = period
        self.fn = fn
        self.args = args
        self._active = True
        sim.call_later(period, self._fire)

    @property
    def active(self) -> bool:
        return self._active

    def _fire(self) -> None:
        if not self._active:
            return
        self.fn(*self.args)
        # The callback may have cancelled us (a fleet draining to empty
        # stops its own ticker); only then does the chain end.
        if self._active:
            self.sim.call_later(self.period, self._fire)

    def cancel(self) -> bool:
        """Stop the periodic chain.  Returns True if it was running."""
        if not self._active:
            return False
        self._active = False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._active else "cancelled"
        return f"<PeriodicCall every {self.period:g}s {state}>"


class Interrupted(Exception):
    """Raised inside a process generator when it is interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; calling :meth:`succeed` (or :meth:`fail`)
    triggers it exactly once and resumes all waiting processes.  Waiting on an
    already-triggered event resumes the waiter immediately (on the next
    kernel step).
    """

    __slots__ = ("sim", "_ok", "_value", "_callbacks", "_triggered", "name")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._ok: bool = True
        self._value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        self._trigger(True, value)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exc`` raised."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        sim = self.sim
        for cb in callbacks:
            sim.call_later(0.0, cb, self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run (as a scheduled callback) once triggered."""
        if self._triggered:
            self.sim.call_later(0.0, cb, self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that triggers automatically after a delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name=f"timeout({delay:g})")
        self.delay = delay
        sim.call_later(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        if not self._triggered:
            self.succeed(value)


class AnyOf(Event):
    """Triggers when the first of several events triggers.

    The value is a dict mapping the winning event(s) to their values.  A
    failed child event fails the composite.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
        else:
            self.succeed({ev: ev.value})


class AllOf(Event):
    """Triggers when all child events have triggered.

    The value is a dict mapping every event to its value.  The first failed
    child fails the composite.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e.value for e in self.events})


class Process(Event):
    """A running simulated activity, driven by a generator.

    A process is itself an :class:`Event` that triggers when the generator
    returns (value = return value) or raises (failure).  This lets processes
    wait on each other by yielding the process object.
    """

    __slots__ = ("generator", "_waiting_on", "ctx")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "",
                 ctx: Any = None):
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # Trace context pinned to this process: the ambient context at spawn
        # time (or an explicit override), restored around every generator
        # resume so causality survives arbitrary interleavings.
        self.ctx = sim.ctx if ctx is None else ctx
        sim.call_later(0.0, self._resume, None)

    @property
    def alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupted` inside the process at its yield point.

        Interrupting a finished process is a no-op.
        """
        if self._triggered:
            return
        target = self._waiting_on
        self._waiting_on = None
        if target is not None and not target.triggered:
            # Detach: the old target may still fire but we will ignore it.
            try:
                target._callbacks.remove(self._on_wait_done)
            except ValueError:
                pass
        self.sim.call_later(0.0, self._throw, Interrupted(cause))

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        self._step(lambda: self.generator.throw(exc))

    def _resume(self, value: Any) -> None:
        if self._triggered:
            return
        self._step(lambda: self.generator.send(value))

    def _resume_error(self, exc: BaseException) -> None:
        if self._triggered:
            return
        self._step(lambda: self.generator.throw(exc))

    def _step(self, advance: Callable[[], Any]) -> None:
        self._waiting_on = None
        sim = self.sim
        if sim.tracer is None:
            # Fast path: tracing is off, so there is no ambient span context
            # to pin/restore around the resume.
            try:
                target = advance()
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupted as exc:
                self.fail(exc)
                return
            except BaseException as exc:  # process boundary: any error in user
                self.fail(exc)            # code must fail the process event
                return
            if not isinstance(target, Event):
                sim.call_later(
                    0.0, self._resume_error,
                    SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"))
                return
            self._waiting_on = target
            target.add_callback(self._on_wait_done)
            return
        prev, sim.ctx = sim.ctx, self.ctx
        try:
            try:
                target = advance()
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except Interrupted as exc:
                # An un-caught interrupt terminates the process "successfully
                # failed": surface it as a failure so waiters notice.
                self.fail(exc)
                return
            except BaseException as exc:  # process boundary: any error in user
                self.fail(exc)            # code must fail the process event
                return
            if not isinstance(target, Event):
                sim.call_later(
                    0.0, self._resume_error,
                    SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"))
                return
            self._waiting_on = target
            target.add_callback(self._on_wait_done)
        finally:
            # The generator may have activated a different span mid-resume;
            # re-pin it so the next resume sees it, then restore the caller's.
            self.ctx = sim.ctx
            sim.ctx = prev

    def _on_wait_done(self, ev: Event) -> None:
        if self._triggered or self._waiting_on is not ev:
            return
        if ev.ok:
            self._resume(ev.value)
        else:
            value = ev.value
            if not isinstance(value, BaseException):
                value = SimulationError(f"event failed with non-exception {value!r}")
            self._resume_error(value)


class _Halt(Exception):
    """Raised by a stop entry to unwind the dispatch loop (never escapes)."""


class Hook:
    """An observer on the kernel's dispatch seam (:meth:`Simulator.add_hook`).

    Every method is a no-op here; a hook overrides what it watches.
    ``scheduled`` sees each handle :meth:`Simulator.schedule` hands out and
    returns the handle the caller gets (the fire-and-forget paths carry no
    handle and are not reported).  ``dispatching``/``dispatched`` bracket
    every callback the loop fires — ``seq`` is the entry's sequence number,
    ``dispatched`` runs even when the callback raises.  ``run_started`` and
    ``run_ended`` bracket every :meth:`Simulator.run` and
    :meth:`Simulator.run_until_triggered`.
    """

    __slots__ = ()

    def scheduled(self, handle: Any) -> Any:
        return handle

    def dispatching(self, seq: int, fn: Callable) -> None:
        pass

    def dispatched(self) -> None:
        pass

    def run_started(self) -> None:
        pass

    def run_ended(self) -> None:
        pass


class Simulator:
    """The discrete-event scheduler and virtual clock.

    Two pending-event structures sit behind one total order:

    - a binary heap of ``(when, seq, ScheduledCall)`` for near events, the
      final ordering authority;
    - a hashed hierarchical timer wheel for far events (delay >=
      ``_WHEEL_CUTOFF``), which cascades entries down a level at a time and
      hands them to the heap just before they become due.

    Every entry reaches the heap before its fire time and the heap orders by
    ``(when, seq)`` with a global monotone ``seq``, so event order — FIFO
    among ties included — is byte-identical to a single-heap kernel
    (``tests/reference_kernel.py`` is that kernel, kept as the oracle).
    Cancelled entries are dropped wherever they are found, without advancing
    the clock, so they neither bloat the heap nor stretch run-until-drain.

    One loop dispatches every event.  A stop condition is a queue entry, not
    a per-event test: ``run(until=t)`` pushes a halt entry at ``(t, inf)``,
    after every real entry at ``t``, and ``run_until_triggered`` adds a halt
    callback on the awaited event.  Observers (sanitizer, profiler) attach
    as :class:`Hook` objects; with none installed and no tracer, the loop
    pays one local test per event for them.
    """

    __slots__ = ("_now", "_queue", "_counter", "_running",
                 "_wheel_slots", "_wheel_order", "_wheel_next", "_wheel_count",
                 "_far", "_far_min", "_live", "_dead", "_pool", "ctx",
                 "tracer", "recorder", "_hooks")

    def __init__(self, sanitizer: Any = None):
        self._now = 0.0
        self._queue: List = []
        self._counter = itertools.count()
        self._running = False
        # Timer wheel: per-level {slot_index: [ScheduledCall]} plus a heap of
        # occupied slot indices per level (lazily pruned).  ``_wheel_next``
        # caches the earliest occupied slot start across levels.
        self._wheel_slots: List[dict] = [{} for _ in _WHEEL_WIDTHS]
        self._wheel_order: List[List[int]] = [[] for _ in _WHEEL_WIDTHS]
        self._wheel_next = _INF
        self._wheel_count = 0
        # Far-entry front buffer: schedule() parks far timers here with a
        # bare list append and they are only sorted into the wheel when the
        # clock approaches ``_far_min``.  Under the dominant
        # schedule-then-cancel pattern most entries are cancelled before the
        # buffer is ever organized, so they cost two O(1) list ops total.
        self._far: List[ScheduledCall] = []
        self._far_min = _INF
        # Live (not-yet-fired, not-cancelled) entries across heap and wheel,
        # plus the cancels-since-last-compaction-check countdown.
        self._live = 0
        self._dead = 0
        # Freelist of pooled ScheduledCall objects (internal, no handle ever
        # exposed, so recycling them is safe).
        self._pool: List[ScheduledCall] = []
        # Ambient trace context (an ``obs.tracing.SpanContext`` or None).
        # Captured by schedule() and pinned on spawned processes, so trace
        # context follows the causal chain of callbacks and resumes without
        # any explicit plumbing.  None whenever tracing is off.
        self.ctx: Any = None
        # The installed ``obs.tracing.Tracer`` (or None).  Components read
        # this at call time; the dispatch loop reads it when a run starts.
        self.tracer: Any = None
        # The installed ``obs.flightrec.FlightRecorder`` (or None).
        # Components read this at log sites; None keeps the disabled cost
        # at one attribute load.
        self.recorder: Any = None
        # Installed :class:`Hook` observers, in installation order.
        self._hooks: tuple = ()
        if sanitizer is not None:
            sanitizer.attach(self)
            self.add_hook(sanitizer)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (schedulable, uncancelled) callbacks."""
        return self._live

    def queue_depth(self) -> int:
        """Physical entries held in the heap, the timer wheel, and the far
        buffer (dead entries included until they are swept); the heap
        high-water input."""
        return len(self._queue) + self._wheel_count + len(self._far)

    # -- hooks ------------------------------------------------------------

    def add_hook(self, hook: Hook) -> None:
        """Install ``hook``; it observes from the next run on."""
        self._hooks += (hook,)

    def remove_hook(self, hook: Hook) -> bool:
        """Uninstall ``hook``; returns False if it was not installed."""
        hooks = self._hooks
        self._hooks = tuple(h for h in hooks if h is not hook)
        return len(self._hooks) != len(hooks)

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time.

        Returns a :class:`ScheduledCall` handle; ``handle.cancel()`` revokes
        the callback in O(1) without leaving a stale heap entry behind.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        when = self._now + delay
        # The ambient trace context rides along; ordering still compares only
        # (when, seq), so tracing never perturbs event order.  The entry
        # comes from the freelist when possible and is otherwise built via
        # __new__ + slot stores: schedule() runs millions of times per
        # experiment and the __init__ call frame is measurable.  Handing a
        # recycled entry out as a public handle is safe because it is marked
        # non-pooled here: it will never be auto-recycled at fire time, only
        # if its new owner calls release() again.
        pool = self._pool
        if pool:
            entry = pool.pop()
        else:
            entry = _new_entry(ScheduledCall)
            entry.sim = self
        entry.when = when
        entry.seq = seq = next(self._counter)
        entry.fn = fn
        entry.args = args
        entry.ctx = self.ctx
        entry._pooled = False
        self._live += 1
        if delay < _WHEEL_CUTOFF:
            heapq.heappush(self._queue, (when, seq, entry))
        else:
            self._far.append(entry)
            if when < self._far_min:
                self._far_min = when
        if self._hooks:
            for hook in self._hooks:
                entry = hook.scheduled(entry)
        return entry

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute virtual time ``when``."""
        return self.schedule(when - self._now, fn, *args)

    def schedule_periodic(self, period: float, fn: Callable,
                          *args: Any) -> PeriodicCall:
        """Run ``fn(*args)`` every ``period`` seconds until cancelled.

        Each tick reuses the pooled zero-allocation scheduling path, so a
        long-lived ticker (a fleet advancing 10⁵ aggregated UEs per tick)
        costs one recycled entry per period instead of a fresh ``Timeout``.
        The first tick fires at ``now + period``.
        """
        return PeriodicCall(self, period, fn, args)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is returned, so the
        callback cannot be cancelled — and the kernel recycles the entry the
        moment it fires.  Use it for callbacks that are never revoked
        (datagram delivery, completion notifications, every internal resume
        and trigger); at millions of events per run the saved allocation is
        the difference between a steady-state and a growing garbage set."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        when = self._now + delay
        seq = next(self._counter)
        pool = self._pool
        if pool:
            entry = pool.pop()
        else:
            entry = _new_entry(ScheduledCall)
            entry.sim = self
            entry._pooled = True
        entry.when = when
        entry.seq = seq
        entry.fn = fn
        entry.args = args
        entry.ctx = self.ctx
        self._live += 1
        if delay < _WHEEL_CUTOFF:
            heapq.heappush(self._queue, (when, seq, entry))
        else:
            self._far.append(entry)
            if when < self._far_min:
                self._far_min = when

    # -- timer wheel ------------------------------------------------------

    def _flush_far(self) -> None:
        """Organize the far buffer: cancelled entries are dropped, near
        entries go to the heap, the rest park in the wheel by *remaining*
        delay (slot start strictly after ``now``, as in the cascade).  Runs
        when the clock reaches ``_far_min``, i.e. at most once per
        ``_WHEEL_CUTOFF`` of virtual time, and every entry passes through at
        most once — amortized O(1) per schedule."""
        now = self._now
        queue = self._queue
        pool = self._pool
        far, self._far = self._far, []
        self._far_min = _INF
        for entry in far:
            if entry.fn is None:
                # Cancelled while buffered: two list ops total.  Released
                # handles go back to the freelist.
                if entry._pooled and len(pool) < _POOL_MAX:
                    pool.append(entry)
                continue
            remaining = entry.when - now
            if remaining < _WHEEL_CUTOFF:
                heapq.heappush(queue, (entry.when, entry.seq, entry))
            else:
                if remaining >= 4.0:
                    level = 3 if remaining >= 1024.0 else (
                        2 if remaining >= 64.0 else 1)
                else:
                    level = 0
                self._wheel_put(level, entry)

    def _wheel_put(self, level: int, entry: ScheduledCall) -> None:
        width = _WHEEL_WIDTHS[level]
        idx = int(entry.when / width)
        slots = self._wheel_slots[level]
        bucket = slots.get(idx)
        if bucket is None:
            slots[idx] = [entry]
            heapq.heappush(self._wheel_order[level], idx)
            start = idx * width
            if start < self._wheel_next:
                self._wheel_next = start
        else:
            bucket.append(entry)
        self._wheel_count += 1

    def _wheel_flush_min(self) -> None:
        """Empty the earliest occupied wheel slot: dead entries are dropped,
        near entries go to the heap, far entries cascade a level down (by
        offset from the slot start, so cascading strictly descends and
        terminates).  Recomputes ``_wheel_next``."""
        best_level = -1
        best_start = _INF
        best_idx = 0
        for level, order in enumerate(self._wheel_order):
            slots = self._wheel_slots[level]
            while order and order[0] not in slots:
                heapq.heappop(order)
            if order:
                start = order[0] * _WHEEL_WIDTHS[level]
                if start < best_start:
                    best_start = start
                    best_level = level
                    best_idx = order[0]
        if best_level < 0:
            self._wheel_next = _INF
            return
        heapq.heappop(self._wheel_order[best_level])
        bucket = self._wheel_slots[best_level].pop(best_idx)
        self._wheel_count -= len(bucket)
        queue = self._queue
        pool = self._pool
        for entry in bucket:
            if entry.fn is None:
                # Cancelled while parked: drop, never hits the heap.
                if entry._pooled and len(pool) < _POOL_MAX:
                    pool.append(entry)
                continue
            remaining = entry.when - best_start
            if best_level == 0 or remaining < _WHEEL_CUTOFF:
                heapq.heappush(queue, (entry.when, entry.seq, entry))
            else:
                if remaining >= 64.0:
                    level = 2
                elif remaining >= 4.0:
                    level = 1
                else:
                    level = 0
                self._wheel_put(level, entry)
        # New earliest slot (cascade may have created nearer ones).
        nxt = _INF
        for level, order in enumerate(self._wheel_order):
            slots = self._wheel_slots[level]
            while order and order[0] not in slots:
                heapq.heappop(order)
            if order:
                start = order[0] * _WHEEL_WIDTHS[level]
                if start < nxt:
                    nxt = start
        self._wheel_next = nxt

    def _compact(self) -> None:
        """Sweep dead (cancelled) entries out of the heap and every wheel
        slot.  O(physical entries), triggered from :meth:`ScheduledCall.cancel`
        only when the dead majority threshold is crossed, so the amortized
        cost per cancel is O(1).  Mutates the heap list in place: ``_run()``
        holds a local reference to it."""
        pool = self._pool
        queue = self._queue
        live = []
        for item in queue:
            entry = item[2]
            if entry.fn is not None:
                live.append(item)
            elif entry._pooled and len(pool) < _POOL_MAX:
                pool.append(entry)
        heapq.heapify(live)
        queue[:] = live
        far = self._far
        survivors = []
        for entry in far:
            if entry.fn is not None:
                survivors.append(entry)
            elif entry._pooled and len(pool) < _POOL_MAX:
                pool.append(entry)
        far[:] = survivors
        self._far_min = min((e.when for e in far), default=_INF)
        count = 0
        nxt = _INF
        for level, slots in enumerate(self._wheel_slots):
            order = self._wheel_order[level]
            width = _WHEEL_WIDTHS[level]
            del order[:]
            for idx in list(slots):
                bucket = []
                for entry in slots[idx]:
                    if entry.fn is not None:
                        bucket.append(entry)
                    elif entry._pooled and len(pool) < _POOL_MAX:
                        pool.append(entry)
                if bucket:
                    slots[idx] = bucket
                    order.append(idx)
                    count += len(bucket)
                else:
                    del slots[idx]
            heapq.heapify(order)
            if order:
                start = order[0] * width
                if start < nxt:
                    nxt = start
        self._wheel_count = count
        self._wheel_next = nxt
        self._dead = 0

    # -- awaitable factories ----------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def spawn(self, generator: Generator, name: str = "",
              ctx: Any = None) -> Process:
        """Start a new process from a generator.

        ``ctx`` pins a trace context on the process; by default the ambient
        context at spawn time is inherited.
        """
        return Process(self, generator, name, ctx=ctx)


    # -- execution ---------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the live events drain or ``until`` (absolute time).

        Returns the clock value when the run stops.  When stopping at
        ``until``, the clock is advanced to exactly ``until``; events at
        ``until`` itself run, later ones remain queued, and an ``until``
        before ``now`` is a ValueError.  Cancelled callbacks never run and
        never advance the clock: a run whose tail is all-cancelled ends at
        the last live event.
        """
        self._run(until)
        return self._now

    def run_until_triggered(self, event: Event, limit: float = _INF) -> Any:
        """Run until ``event`` triggers; raise on failure or time limit.

        The run stops when the callback the trigger schedules fires — at
        the trigger's instant, after entries already queued for it.  A
        finite ``limit`` bounds the run like ``run(until=limit)``.
        """
        if not event._triggered:
            armed = True

            def stop(_event: Event) -> None:
                if armed:  # a stale stop from an aborted wait is a no-op
                    raise _Halt

            event.add_callback(stop)
            try:
                self._run(None if limit == _INF else limit)
            finally:
                armed = False
                if not event._triggered:
                    event._callbacks.remove(stop)
            if not event._triggered:
                if self._live:
                    raise SimulationError(
                        f"time limit {limit} reached while waiting")
                raise SimulationError(
                    "deadlock: event queue drained while waiting")
        if not event.ok:
            value = event.value
            if isinstance(value, BaseException):
                raise value
            raise SimulationError(f"awaited event failed: {value!r}")
        return event.value

    def _halt(self) -> None:
        # Callback of a stop sentinel, which is not a live entry: undo the
        # loop's live-count decrement, then unwind it.
        self._live += 1
        raise _Halt

    def _run(self, stop_at: Optional[float]) -> None:
        """The dispatch loop: runs until nothing live remains or a halt
        entry fires (the ``stop_at`` sentinel or a halt callback)."""
        if self._running:
            raise SimulationError("run() is not reentrant")
        queue = self._queue
        halt = None
        if stop_at is not None:
            if stop_at < self._now:
                raise ValueError(f"cannot run until the past "
                                 f"(until={stop_at}, now={self._now})")
            # A seq of +inf sorts after every entry at ``stop_at``, those
            # scheduled during the run included; it takes no number from
            # the counter.
            halt = ScheduledCall(self, stop_at, _INF, self._halt, (), None)
            heapq.heappush(queue, (stop_at, _INF, halt))
        self._running = True
        hooks = self._hooks
        plain = self.tracer is None and not hooks
        heappop = heapq.heappop
        pool = self._pool
        for hook in hooks:
            hook.run_started()
        try:
            while True:
                if queue:
                    head = queue[0]
                    entry = head[2]
                    if entry.fn is None:
                        heappop(queue)
                        # Dead entries are only released entries here
                        # (pooled internals are never cancelled).
                        if entry._pooled and len(pool) < _POOL_MAX:
                            pool.append(entry)
                        continue
                    # A buffered far entry or a wheel slot starting at or
                    # before the heap top may hold an entry due sooner;
                    # organize those first.  _far_min / _wheel_next are +inf
                    # whenever the far buffer / wheel are empty.
                    if self._far_min <= head[0]:
                        self._flush_far()
                        continue
                    if self._wheel_next <= head[0]:
                        self._wheel_flush_min()
                        continue
                elif self._far:
                    self._flush_far()
                    continue
                elif self._wheel_count:
                    self._wheel_flush_min()
                    continue
                else:
                    break
                heappop(queue)
                self._now = head[0]
                self._live -= 1
                fn = entry.fn
                args = entry.args
                ctx = entry.ctx
                entry.fn = None  # marks fired: a late cancel() is a no-op
                if entry._pooled:
                    entry.args = ()
                    entry.ctx = None
                    if len(pool) < _POOL_MAX:
                        pool.append(entry)
                if plain:
                    fn(*args)
                else:
                    prev, self.ctx = self.ctx, ctx
                    try:
                        if hooks:
                            self._dispatch_hooked(hooks, head[1], fn, args)
                        else:
                            fn(*args)
                    finally:
                        self.ctx = prev
        except _Halt:
            pass
        finally:
            self._running = False
            if halt is not None and halt.fn is not None:
                # Stopped some other way: unlink the sentinel so it neither
                # halts a later run nor counts as queued.
                queue.remove((stop_at, _INF, halt))
                heapq.heapify(queue)
            for hook in hooks:
                hook.run_ended()

    @staticmethod
    def _dispatch_hooked(hooks: tuple, seq: int, fn: Callable,
                         args: tuple) -> None:
        for hook in hooks:
            hook.dispatching(seq, fn)
        try:
            fn(*args)
        finally:
            for hook in reversed(hooks):
                hook.dispatched()
