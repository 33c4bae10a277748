"""Attach workloads: the control-plane load generators of §4.1-4.2.

An attach storm brings ``num_ues`` UEs onto the network at a configured
rate (the paper: 3 UE/s for the typical-site experiment; a sweep of rates
for Fig. 6), optionally starting a per-UE download once attached.  Results
are recorded per attempt so the harness can compute the paper's
*connection success rate* in 5-second bins.
"""

from __future__ import annotations

from typing import List, Optional

from ..lte.ue import AttachOutcome, Ue
from ..record import record
from ..sim.kernel import Simulator
from ..sim.monitor import Monitor

#: Seconds a failed UE waits before its next attempt (T3411-style backoff).
RETRY_DELAY = 3.0


@record
class AttachRecord:
    imsi: str
    started_at: float
    finished_at: float
    success: bool
    latency: float
    cause: str = ""


class AttachStorm:
    """Attaches a population of UEs at a fixed rate."""

    def __init__(self, sim: Simulator, ues: List[Ue], rate_per_sec: float,
                 offered_mbps_after_attach: float = 0.0,
                 monitor: Optional[Monitor] = None, retries: int = 0):
        if rate_per_sec <= 0:
            raise ValueError("attach rate must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.sim = sim
        self.ues = ues
        self.rate = rate_per_sec
        self.offered_mbps = offered_mbps_after_attach
        self.monitor = monitor
        self.retries = retries
        self.records: List[AttachRecord] = []
        self.ue_outcomes: dict = {}   # imsi -> final success (after retries)
        self.done = sim.event("attach-storm-done")
        self._outstanding = 0
        self._launched = 0
        self._attempts_left: dict = {}
        self._successes = 0
        self._ue_final_ok = 0
        self._ue_final_total = 0
        self._next_index = 0

    def start(self) -> None:
        """Begin launching; rides the kernel's fire-and-forget callback
        path (``call_later``) instead of a coroutine + per-launch Timeout,
        so a 10⁵-UE storm schedules one kernel entry per launch."""
        if self.ues:
            self.sim.call_later(0.0, self._launch_next)
        elif not self.done.triggered:
            self.done.succeed(self.records)

    def _launch_next(self) -> None:
        ue = self.ues[self._next_index]
        self._next_index += 1
        self._launch(ue)
        if self._next_index < len(self.ues):
            self.sim.call_later(1.0 / self.rate, self._launch_next)

    def _launch(self, ue: Ue, first: bool = True) -> None:
        if first:
            self._outstanding += 1
            self._launched += 1
            self._attempts_left[ue.imsi] = self.retries
        started = self.sim.now
        if self.offered_mbps > 0:
            ue.offered_mbps = self.offered_mbps
        attach_event = ue.attach()
        attach_event.add_callback(
            lambda ev: self._on_done(ue, started, ev.value))

    def _on_done(self, ue: Ue, started: float, outcome: AttachOutcome) -> None:
        if outcome.success:
            self._successes += 1
        self.records.append(AttachRecord(
            imsi=ue.imsi, started_at=started, finished_at=self.sim.now,
            success=outcome.success, latency=outcome.latency,
            cause=outcome.cause))
        if self.monitor is not None:
            self.monitor.record("attach.outcome", self.sim.now,
                                1.0 if outcome.success else 0.0)
            if outcome.success:
                self.monitor.record("attach.latency", self.sim.now,
                                    outcome.latency)
        if not outcome.success and self._attempts_left.get(ue.imsi, 0) > 0:
            # The UE retries after T3411-style backoff (still one UE; each
            # attempt is its own CSR data point, as the paper counts them).
            # Retry timers are never revoked: fire-and-forget.
            self._attempts_left[ue.imsi] -= 1
            self.sim.call_later(RETRY_DELAY, self._launch, ue, False)
            return
        self._outstanding -= 1
        self._attempts_left.pop(ue.imsi, None)
        self._ue_final_total += 1
        if outcome.success:
            self._ue_final_ok += 1
        self.ue_outcomes[ue.imsi] = outcome.success
        if self._launched == len(self.ues) and self._outstanding == 0 \
                and not self.done.triggered:
            self.done.succeed(self.records)

    # -- metrics -------------------------------------------------------------------

    def success_count(self) -> int:
        return self._successes

    def ue_success_fraction(self) -> float:
        """Fraction of UEs that ended up attached (after retries)."""
        if not self._ue_final_total:
            raise ValueError("no attach attempts recorded")
        return self._ue_final_ok / self._ue_final_total

    def overall_csr(self) -> float:
        if not self.records:
            raise ValueError("no attach attempts recorded")
        return self._successes / len(self.records)

    def csr_bins(self, width: float = 5.0) -> List[tuple]:
        """Connection success rate per time bin, the Fig. 6 metric.

        Binned by *attempt start time*; returns [(bin_start, csr), ...]
        skipping empty bins.
        """
        if not self.records:
            return []
        t_end = max(r.started_at for r in self.records) + width
        nbins = int(t_end / width) + 1
        totals = [0] * nbins
        successes = [0] * nbins
        for record in self.records:
            index = int(record.started_at / width)
            totals[index] += 1
            if record.success:
                successes[index] += 1
        return [(i * width, successes[i] / totals[i])
                for i in range(nbins) if totals[i] > 0]

    def median_csr(self, width: float = 5.0) -> float:
        """Median of the per-bin CSRs (the Fig. 8 metric)."""
        from ..sim.monitor import median
        bins = self.csr_bins(width)
        if not bins:
            raise ValueError("no attach attempts recorded")
        return median([csr for (_start, csr) in bins])
