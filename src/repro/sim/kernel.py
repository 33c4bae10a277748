"""Discrete-event simulation kernel.

Everything in this reproduction runs on top of this kernel: protocol state
machines, RPC channels, CPU models, and workload generators are all simulated
processes exchanging events in virtual time.

The design follows the classic event-list pattern:

- A :class:`Simulator` owns a priority queue of timestamped callbacks and a
  virtual clock (``now``, in seconds).
- A :class:`Process` wraps a Python generator.  The generator *yields*
  awaitable objects (:class:`Timeout`, :class:`Event`, another
  :class:`Process`, :class:`AnyOf`) and is resumed when the awaited
  thing completes.  The value sent back into the generator is the payload
  of the completed awaitable.
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
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

_INF = float("inf")

# Entries due sooner than this go straight onto the heap.  Later ones are
# appended to a far buffer and only pushed onto the heap when the clock
# approaches the earliest of them.  The payoff is the dominant
# schedule-then-cancel pattern (RPC deadlines and retries, guard timers):
# an entry cancelled while buffered is dropped at the flush without ever
# touching the heap.
_FAR = 0.25
# Dead entries are swept out once they outnumber the live ones and exceed
# this floor, so after a cancel the queue holds at most
# ``2 * live + _COMPACT_MIN`` entries.
_COMPACT_MIN = 64


class SimulationError(Exception):
    """Base class for kernel-level errors."""


class ScheduledCall:
    """Cancelable handle for one scheduled callback.

    Returned by :meth:`Simulator.schedule`.  ``cancel()`` is O(1): it marks
    the entry dead where it sits (heap or far buffer); the kernel drops dead
    entries without executing them and without advancing the clock to their
    deadline, so a drained run ends at the last *live* event.
    """

    __slots__ = ("sim", "when", "seq", "fn", "args", "ctx")

    def __init__(self, sim: "Simulator", when: float, seq: int, fn, args,
                 ctx):
        self.sim = sim
        self.when = when
        self.seq = seq
        self.fn = fn
        self.args = args
        self.ctx = ctx

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
        sim._dead += 1
        # ``_dead`` counts exactly the dead entries still queued, so this
        # sweep keeps the queue within twice the live count (plus a floor)
        # at an amortized O(1) per cancel.
        if sim._dead > sim._live and sim._dead > _COMPACT_MIN:
            sim._compact()
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
    entry per period — unlike a ``Timeout``-per-tick coroutine loop, which
    builds an event object and a callback list every period.

    ``cancel()`` stops the chain and revokes the queued tick, so a
    cancelled ticker is not pending and does not stretch a drained run.
    Ticks are kernel-internal entries: :meth:`Hook.scheduled` never sees
    them.  The first tick fires at ``now + period``.
    """

    __slots__ = ("sim", "period", "fn", "args", "_next")

    def __init__(self, sim: "Simulator", period: float, fn: Callable,
                 args: tuple):
        if not period > 0:      # NaN too
            raise ValueError(f"periodic call needs a positive period: {period}")
        self.sim = sim
        self.period = period
        self.fn = fn
        self.args = args
        # The queued tick; None once cancelled.
        self._next: Optional[ScheduledCall] = sim._arm(period, self._fire, ())

    @property
    def active(self) -> bool:
        return self._next is not None

    def _fire(self) -> None:
        self.fn(*self.args)
        # The callback may have cancelled us (a fleet draining to empty
        # stops its own ticker); only then does the chain end.
        if self._next is not None:
            self._next = self.sim._arm(self.period, self._fire, ())

    def cancel(self) -> bool:
        """Stop the periodic chain.  Returns True if it was running."""
        tick = self._next
        if tick is None:
            return False
        self._next = None
        tick.cancel()
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self._next is not None else "cancelled"
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
    kernel step).  A watcher (:meth:`watch`) observes the trigger inline
    instead, without a kernel entry.
    """

    __slots__ = ("sim", "ok", "value", "_callbacks", "triggered", "name",
                 "_watchers")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        # ``triggered``, ``ok`` (True if the event succeeded; meaningful
        # once triggered) and ``value`` are plain slots: read them freely,
        # but only the kernel writes them (reprolint REPRO203).
        self.ok: bool = True
        self.value: Any = None
        # None once triggered: the list went to the kernel in one piece.
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.triggered = False
        # None until the first watch(): an unwatched trigger pays one test.
        self._watchers: Optional[List[Callable[["Event"], None]]] = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        # _trigger's body, inline: every RPC reply and every process exit
        # comes here.  ``ok`` is still True: only a trigger clears it.
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        watchers = self._watchers
        if watchers is not None:
            self._watchers = None
            for fn in watchers:
                fn(self)
        callbacks = self._callbacks
        self._callbacks = None
        if callbacks:
            self.sim._call_soon_each(callbacks, self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exc`` raised."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(False, exc)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.ok = ok
        self.value = value
        watchers = self._watchers
        if watchers is not None:
            self._watchers = None
            for fn in watchers:
                fn(self)
        callbacks = self._callbacks
        self._callbacks = None
        if callbacks:
            self.sim._call_soon_each(callbacks, self)

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register ``cb`` to run (as a scheduled callback) once triggered."""
        if self.triggered:
            self.sim.call_later(0.0, cb, self)
        else:
            self._callbacks.append(cb)

    def watch(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(self)`` inline and once when the event triggers, before
        its callbacks are queued; at once if it already has.

        A watcher only observes: it may read the event and the clock, but
        must not schedule, trigger, spawn, resume or raise, because it runs
        inside whatever dispatch triggered the event.  It takes no kernel
        entry and no sequence number, so watching never moves event order.
        """
        if self.triggered:
            fn(self)
        elif self._watchers is None:
            self._watchers = [fn]
        else:
            self._watchers.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that triggers automatically after a delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:      # NaN too
            raise ValueError(f"timeout delay must be >= 0: {delay}")
        super().__init__(sim, name=f"timeout({delay:g})")
        self.delay = delay
        sim.call_later(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        if not self.triggered:
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
        if self.triggered:
            return
        # A loser's callback list keeps this method, and so this event,
        # for as long as the loser lives: holding the loser back would be
        # a cycle only the garbage collector frees.
        self.events = []
        if not ev.ok:
            self.fail(ev.value)
        else:
            self.succeed({ev: ev.value})


class _Kick:
    """A resume that is no event's trigger: a process's start, an
    interrupt, or the error for a yielded non-event.  :meth:`Process._step`
    takes it as it takes the event waited on, without the wait check."""

    __slots__ = ("ok", "value")

    def __init__(self, ok: bool, value: Any):
        self.ok = ok
        self.value = value


_START = _Kick(True, None)


class Process(Event):
    """A running simulated activity, driven by a generator.

    A process is itself an :class:`Event` that triggers when the generator
    returns (value = return value) or raises (failure).  This lets processes
    wait on each other by yielding the process object.

    Every resume is one ``_step`` frame: the event waited on queues it
    with itself when it triggers, and a start, an interrupt or a yielded
    non-event queues it with a :class:`_Kick`.
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
        sim.call_later(0.0, self._step, _START)

    @property
    def alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupted` inside the process at its yield point.

        Interrupting a finished process is a no-op.
        """
        if self.triggered:
            return
        target = self._waiting_on
        self._waiting_on = None
        if target is not None and not target.triggered:
            # Detach: the old target may still fire but we will ignore it.
            try:
                target._callbacks.remove(self._step)
            except ValueError:
                pass
        self.sim.call_later(0.0, self._step, _Kick(False, Interrupted(cause)))

    def _step(self, ev: Any) -> None:
        """Resume the generator with ``ev``'s outcome — send its value or
        throw its exception — and wait on the event it yields next.

        ``ev`` is the event waited on, or a :class:`_Kick`.  Any other
        event is stale (an interrupt detached the wait) and is ignored.
        """
        if self.triggered or (self._waiting_on is not ev
                              and ev.__class__ is not _Kick):
            return
        self._waiting_on = None
        sim = self.sim
        # Pin the process's trace context for the resume (with tracing off
        # both are None and the swap is free).
        prev, sim.ctx = sim.ctx, self.ctx
        try:
            try:
                if ev.ok:
                    target = self.generator.send(ev.value)
                else:
                    exc = ev.value
                    if not isinstance(exc, BaseException):
                        exc = SimulationError(
                            f"event failed with non-exception {exc!r}")
                    target = self.generator.throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # process boundary: any error in
                self.fail(exc)            # user code, an uncaught interrupt
                return                    # included, fails the process event
            if not isinstance(target, Event):
                sim.call_later(0.0, self._step, _Kick(False, SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}")))
                return
            self._waiting_on = target
            # add_callback's body, inline: ``_callbacks`` is None once the
            # event has triggered.
            callbacks = target._callbacks
            if callbacks is None:
                sim.call_later(0.0, self._step, target)
            else:
                callbacks.append(self._step)
        finally:
            # The generator may have activated a different span mid-resume;
            # re-pin it so the next resume sees it, then restore the caller's.
            self.ctx = sim.ctx
            sim.ctx = prev


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

    Pending entries sit in three structures behind one total order,
    ``(when, seq)``:

    - a lane, a FIFO ``deque`` of plain ``(seq, fn, args, ctx)`` tuples,
      which takes every ``call_later(0.0, ...)`` and every callback a
      trigger hands over.  Its entries are all due now: the clock never
      advances past a lane entry, and seqs rise along the lane;
    - a binary heap of ``(when, seq, ScheduledCall)``, which takes every
      other entry due within ``_FAR`` seconds, ``schedule(0.0)`` handles
      included;
    - a far buffer, a plain list the later entries are appended to.  The
      loop flushes it onto the heap once its earliest deadline
      (``_far_min``) reaches the heap head, dropping what was cancelled
      meanwhile.

    The loop fires the lane head unless the heap head is due now with a
    smaller ``seq``, so the clock, which only a heap entry moves, stays
    put while the lane holds anything.  Far entries are due at least
    ``_FAR`` after the instant they were queued, and every far entry
    reaches the heap before its fire time, so with a global monotone
    ``seq`` event order — FIFO among ties included — is that of a
    single-heap kernel (``tests/reference_kernel.py`` is that kernel,
    kept as the oracle).
    Cancelled entries are dropped wherever they are found, without advancing
    the clock, so they neither bloat the queue nor stretch run-until-drain.

    One loop dispatches every event.  A stop condition is a queue entry, not
    a per-event test: ``run(until=t)`` pushes a halt entry at ``(t, inf)``,
    after every real entry at ``t``, and ``run_until_triggered`` adds a halt
    callback on the awaited event.  Observers (sanitizer, profiler) attach
    as :class:`Hook` objects; with none installed and no tracer, the loop
    pays one local test per event for them.

    ``now`` is a plain slot: read it freely, but only the kernel writes it
    (reprolint REPRO203).
    """

    __slots__ = ("now", "_lane", "_queue", "_seq", "_running", "_far",
                 "_far_min", "_live", "_dead", "ctx", "tracer", "recorder",
                 "_hooks")

    def __init__(self, sanitizer: Any = None):
        # Current virtual time in seconds.
        self.now = 0.0
        self._lane: deque = deque()
        self._queue: List = []
        # The next sequence number: every entry takes one, in queue order.
        self._seq = 0
        self._running = False
        self._far: List[ScheduledCall] = []
        self._far_min = _INF
        # Live (not fired, not cancelled) entries, and dead (cancelled,
        # still queued) ones, across heap and far buffer; lane entries are
        # always live and counted by the lane's length.
        self._live = 0
        self._dead = 0
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
    def pending(self) -> int:
        """Number of live (schedulable, uncancelled) callbacks."""
        return self._live + len(self._lane)

    def queue_depth(self) -> int:
        """Physical entries held in the lane, the heap and the far buffer
        (dead ones included until they are swept); the heap high-water
        input."""
        return len(self._lane) + len(self._queue) + len(self._far)

    # -- hooks ------------------------------------------------------------

    def add_hook(self, hook: Hook) -> None:
        """Install ``hook``; it observes from the next run on."""
        self._hooks += (hook,)

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time.

        Returns a :class:`ScheduledCall` handle; ``handle.cancel()`` revokes
        the callback in O(1) without leaving a stale heap entry behind.
        """
        # _arm's body, inline: every RPC call and retransmission arms here.
        if not delay >= 0:      # NaN too: it would run time backwards
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        when = self.now + delay
        entry = _new_entry(ScheduledCall)
        entry.sim = self
        entry.when = when
        entry.seq = seq
        entry.fn = fn
        entry.args = args
        entry.ctx = self.ctx
        self._live += 1
        if delay < _FAR:
            heapq.heappush(self._queue, (when, seq, entry))
        else:
            self._far.append(entry)
            if when < self._far_min:
                self._far_min = when
        for hook in self._hooks:
            entry = hook.scheduled(entry)
        return entry

    def schedule_at(self, when: float, fn: Callable, *args: Any) -> ScheduledCall:
        """Run ``fn(*args)`` at absolute virtual time ``when``."""
        return self.schedule(when - self.now, fn, *args)

    def schedule_periodic(self, period: float, fn: Callable,
                          *args: Any) -> PeriodicCall:
        """Run ``fn(*args)`` every ``period`` seconds until cancelled.

        One kernel entry per period, with no ``Timeout`` or process behind
        it, so a long-lived ticker (a fleet advancing 10⁵ aggregated UEs per
        tick) costs one callback per tick.  The first tick fires at
        ``now + period``.
        """
        return PeriodicCall(self, period, fn, args)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle is returned, so the
        callback cannot be cancelled and no hook sees it.  Use it for
        callbacks that are never revoked (datagram delivery, completion
        notifications, every internal resume and trigger).

        It is also the one way to send an RPC whose reply nobody awaits:
        ``call_later(0.0, channel.call, service, method, request,
        deadline)``.  The zero delay is part of the model.  A direct call
        puts the request on the wire ahead of the sends the current
        callback makes after it, such as the reply an RPC server sends
        once the running handler returns, and so reorders serialization
        on a shared link."""
        seq = self._seq
        if delay == 0.0:
            # Due now: a lane tuple, no handle and no heap push or pop.
            self._seq = seq + 1
            self._lane.append((seq, fn, args, self.ctx))
            return
        # The rest is _arm's body, inline: this is the hottest call in the
        # kernel and the extra frame is measurable.
        if not delay >= 0:      # NaN too: it would run time backwards
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq = seq + 1
        when = self.now + delay
        entry = _new_entry(ScheduledCall)
        entry.sim = self
        entry.when = when
        entry.seq = seq
        entry.fn = fn
        entry.args = args
        entry.ctx = self.ctx
        self._live += 1
        if delay < _FAR:
            heapq.heappush(self._queue, (when, seq, entry))
        else:
            self._far.append(entry)
            if when < self._far_min:
                self._far_min = when

    def _call_soon_each(self, callbacks: List[Callable], event: Event) -> None:
        """Queue ``cb(event)`` now for each of ``callbacks``, in order, as
        consecutive lane entries: a trigger hands its whole callback list
        over in this one call."""
        seq = self._seq
        self._seq = seq + len(callbacks)
        append = self._lane.append
        args = (event,)
        ctx = self.ctx
        for cb in callbacks:
            append((seq, cb, args, ctx))
            seq += 1

    def _arm(self, delay: float, fn: Callable, args: tuple) -> ScheduledCall:
        """Queue ``fn(*args)`` after ``delay`` and return its entry.  The
        ambient trace context rides along; ordering compares only
        ``(when, seq)``, so tracing never perturbs event order."""
        if not delay >= 0:      # NaN too: it would run time backwards
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        when = self.now + delay
        entry = _new_entry(ScheduledCall)
        entry.sim = self
        entry.when = when
        entry.seq = seq = self._seq
        self._seq = seq + 1
        entry.fn = fn
        entry.args = args
        entry.ctx = self.ctx
        self._live += 1
        if delay < _FAR:
            heapq.heappush(self._queue, (when, seq, entry))
        else:
            self._far.append(entry)
            if when < self._far_min:
                self._far_min = when
        return entry

    # -- far buffer and compaction ----------------------------------------

    def _flush_far(self) -> None:
        """Move the far buffer onto the heap, dropping cancelled entries.
        Runs when the clock approaches ``_far_min``, and every entry passes
        through at most once — amortized O(1) per schedule."""
        far, self._far = self._far, []
        self._far_min = _INF
        queue = self._queue
        dropped = 0
        for entry in far:
            if entry.fn is None:
                dropped += 1
            else:
                heapq.heappush(queue, (entry.when, entry.seq, entry))
        self._dead -= dropped

    def _compact(self) -> None:
        """Sweep dead entries out of the heap and the far buffer.  O(queued
        entries), triggered from :meth:`ScheduledCall.cancel` only once dead
        entries outnumber live ones, so the amortized cost per cancel is
        O(1).  Mutates both lists in place: ``_run()`` holds the heap."""
        queue = self._queue
        queue[:] = [item for item in queue if item[2].fn is not None]
        heapq.heapify(queue)
        far = self._far
        far[:] = [entry for entry in far if entry.fn is not None]
        self._far_min = min([entry.when for entry in far], default=_INF)
        self._dead = 0

    # -- awaitable factories ----------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

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
        return self.now

    def run_until_triggered(self, event: Event, limit: float = _INF) -> Any:
        """Run until ``event`` triggers; raise on failure or time limit.

        The run stops when the callback the trigger schedules fires — at
        the trigger's instant, after entries already queued for it.  A
        finite ``limit`` bounds the run like ``run(until=limit)``.
        """
        if not event.triggered:
            armed = True

            def stop(_event: Event) -> None:
                if armed:  # a stale stop from an aborted wait is a no-op
                    raise _Halt

            event.add_callback(stop)
            try:
                self._run(None if limit == _INF else limit)
            finally:
                armed = False
                if not event.triggered:
                    event._callbacks.remove(stop)
            if not event.triggered:
                if self._live or self._lane:
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
        lane = self._lane
        now = self.now
        halt = None
        if stop_at is not None:
            if not stop_at >= now:      # NaN too
                raise ValueError(f"cannot run until the past "
                                 f"(until={stop_at}, now={now})")
            # A seq of +inf sorts after every entry at ``stop_at``, those
            # scheduled during the run included; it takes no number from
            # the counter.
            halt = ScheduledCall(self, stop_at, _INF, self._halt, (), None)
            heapq.heappush(queue, (stop_at, _INF, halt))
        self._running = True
        hooks = self._hooks
        plain = self.tracer is None and not hooks
        heappop = heapq.heappop
        popleft = lane.popleft
        for hook in hooks:
            hook.run_started()
        try:
            while True:
                # The lane head is due now, so it goes first unless the
                # heap head is due now too and was queued before it.
                if lane and (not queue or queue[0][0] > now
                             or queue[0][1] > lane[0][0]):
                    seq, fn, args, ctx = popleft()
                elif queue:
                    # A buffered far entry due at or before the heap head
                    # may precede it; move the buffer onto the heap first.
                    # ``_far_min`` is +inf whenever the buffer is empty.
                    if self._far_min <= queue[0][0]:
                        self._flush_far()
                        continue
                    when, seq, entry = heappop(queue)
                    fn = entry.fn
                    if fn is None:
                        self._dead -= 1
                        continue
                    self.now = now = when
                    self._live -= 1
                    args = entry.args
                    ctx = entry.ctx
                    entry.fn = None  # marks fired: a late cancel() is a no-op
                elif self._far:
                    self._flush_far()
                    continue
                else:
                    break
                if plain:
                    fn(*args)
                else:
                    prev, self.ctx = self.ctx, ctx
                    try:
                        if hooks:
                            self._dispatch_hooked(hooks, seq, fn, args)
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
