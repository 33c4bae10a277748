"""Reference kernel: one plain heap, the event-order oracle.

``repro.sim.kernel.Simulator`` keeps zero-delay fire-and-forget entries
in a FIFO lane, near entries in a heap and far ones in a far buffer, and
stops its one dispatch loop with sentinel entries.  This kernel has none
of that: every entry, each callback a trigger hands over included, goes
on a single heap ordered by ``(when, seq)``, cancel marks the entry dead
where it sits, and each run tests its stop condition before every event.  It shares the
product's ``ScheduledCall`` / ``Event`` / ``Process`` classes, so the two
can only differ in the order they fire entries and where they stop —
which is what ``test_sim_kernel_oracle.py`` compares.  ``bench_components``'
heap-baseline churn runs on it too.

The stop rules it spells out are the product's:

- ``run(until=t)`` fires every live entry due at or before ``t``, then
  sets the clock to ``t``; ``t`` before ``now`` is a ValueError.
- ``run_until_triggered(event, limit)`` registers a callback on the event
  and stops once that callback has fired, i.e. at the trigger's instant
  after the entries already queued for it.  Without a trigger it raises
  "time limit" if live entries remain (the clock then stands at a finite
  ``limit``) and "deadlock" if none do.
- A nested run raises ``SimulationError`` and leaves the outer one intact.
"""

import heapq
import itertools

from repro.sim.kernel import (
    AnyOf,
    Event,
    PeriodicCall,
    Process,
    ScheduledCall,
    SimulationError,
    Timeout,
)

_INF = float("inf")


class ReferenceSimulator:
    """The public surface of ``Simulator`` on one heap."""

    def __init__(self):
        self.now = 0.0
        self._queue = []
        self._counter = itertools.count()
        self._running = False
        # ScheduledCall.cancel() keeps these and calls _compact().
        self._live = 0
        self._dead = 0
        self.ctx = None
        self.tracer = None

    @property
    def pending(self):
        return self._live

    def queue_depth(self):
        return len(self._queue)

    # -- scheduling -------------------------------------------------------

    def _arm(self, delay, fn, args):
        if not delay >= 0:      # NaN too
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        when = self.now + delay
        entry = ScheduledCall(self, when, next(self._counter), fn, args,
                              self.ctx)
        heapq.heappush(self._queue, (when, entry.seq, entry))
        self._live += 1
        return entry

    def schedule(self, delay, fn, *args):
        return self._arm(delay, fn, args)

    def schedule_at(self, when, fn, *args):
        return self.schedule(when - self.now, fn, *args)

    def schedule_periodic(self, period, fn, *args):
        return PeriodicCall(self, period, fn, args)

    def call_later(self, delay, fn, *args):
        self._arm(delay, fn, args)

    def _call_soon_each(self, callbacks, event):
        for cb in callbacks:
            self._arm(0.0, cb, (event,))

    def _compact(self):
        self._queue[:] = [item for item in self._queue
                          if item[2].fn is not None]
        heapq.heapify(self._queue)
        self._dead = 0

    # -- awaitable factories ----------------------------------------------

    def event(self, name=""):
        return Event(self, name)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def any_of(self, events):
        return AnyOf(self, events)

    def spawn(self, generator, name="", ctx=None):
        return Process(self, generator, name, ctx=ctx)

    # -- execution ---------------------------------------------------------

    def run(self, until=None):
        self._loop(until, lambda: False)
        return self.now

    def run_until_triggered(self, event, limit=_INF):
        if not event.triggered:
            fired = []
            event.add_callback(fired.append)
            try:
                self._loop(None if limit == _INF else limit,
                           lambda: bool(fired))
            finally:
                if not event.triggered:
                    event._callbacks.remove(fired.append)
            if not fired:
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

    def _loop(self, until, stopped):
        if self._running:
            raise SimulationError("run() is not reentrant")
        if until is not None and not until >= self.now:     # NaN too
            raise ValueError(f"cannot run until the past "
                             f"(until={until}, now={self.now})")
        self._running = True
        queue = self._queue
        try:
            while not stopped():
                while queue and queue[0][2].fn is None:
                    heapq.heappop(queue)
                    self._dead -= 1
                if not queue or (until is not None and queue[0][0] > until):
                    if until is not None:
                        self.now = until
                    return
                when, _seq, entry = heapq.heappop(queue)
                self.now = when
                self._live -= 1
                fn, args, ctx = entry.fn, entry.args, entry.ctx
                entry.fn = None
                if self.tracer is None:
                    fn(*args)
                else:
                    prev, self.ctx = self.ctx, ctx
                    try:
                        fn(*args)
                    finally:
                        self.ctx = prev
        finally:
            self._running = False
