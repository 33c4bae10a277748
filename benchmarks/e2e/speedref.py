"""An interleaved speed reference: the noise control for host seconds.

On the shared 2-core reference box the *same* pure-CPU loop takes
0.25-0.45 s from one second to the next (neighbour load: ``process_time``
tracks wall, so it is the core running slower, not preemption), and the
slow phases last long enough to swallow a whole run — raw wall clocks of
identical work spread 31% (inter-quartile / median over 20 reps).  The
slow-down is close to one factor for all interpreter-bound work, so a
fixed burst of bytecode run every ~15 ms *inside* the section being
timed samples that factor where and when it applies; dividing it out
left 5.5% on the same 20 reps.

``tick()`` is called by the workloads at every natural step (a check-in,
a publish, one sim-second of ``sim.run``); it spins only when
``INTERVAL_SECONDS`` have passed since the last burst.  The rep reports
host seconds as ``(elapsed - time in bursts) * nominal burst time /
measured burst time``: seconds at the reference box's nominal speed.
Under the profile hook the reference is disabled (``tick`` returns at
once), so bursts add no calls and no self time to the traced pass.
"""

from __future__ import annotations

import time

#: Spin at most this often.
INTERVAL_SECONDS = 0.015
SPIN_ITERATIONS = 12_000
#: One burst at the reference box's nominal (quiet) speed.  Frozen: it
#: sets the scale of every reported host second.
NOMINAL_BURST_SECONDS = 0.0019


def spin() -> int:
    """The fixed burst: dict stores, tuple builds and integer arithmetic,
    and not one function call, so it resembles the interpreter-bound work
    it is a yardstick for."""
    table = {}
    total = 0
    for i in range(SPIN_ITERATIONS):
        table[i & 255] = (i, total)
        total = (total + (i ^ (total >> 3))) & 0xFFFFFFFF
    return total


class SpeedReference:
    """Accumulates burst count and burst seconds; phases are read off as
    differences of :meth:`snapshot`."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.bursts = 0
        self.seconds = 0.0
        self._last = 0.0

    def tick(self, force: bool = False) -> None:
        if not self.enabled:
            return
        now = time.perf_counter()
        if not force and now - self._last < INTERVAL_SECONDS:
            return
        spin()
        self._last = time.perf_counter()
        self.seconds += self._last - now
        self.bursts += 1

    def snapshot(self):
        return self.bursts, self.seconds


def normalised(elapsed: float, before, after) -> float:
    """``elapsed`` host seconds between two snapshots, with the bursts'
    own time taken out and the rest scaled to nominal speed."""
    bursts = after[0] - before[0]
    burst_seconds = after[1] - before[1]
    work = elapsed - burst_seconds
    if not bursts:
        return work
    return work * (bursts * NOMINAL_BURST_SECONDS) / burst_seconds
