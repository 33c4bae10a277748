"""Radio capacity model for an LTE cell.

The paper's "typical site" arithmetic (§4.1): an eNodeB supports at most 96
simultaneously *active* users and a 20 MHz channel, i.e. a peak aggregate
throughput on the order of 126-150 Mbps per eNodeB.  The evaluation's point
is that the *RAN is the bottleneck* at a cell site, so a faithful capacity
model matters more than PHY detail.

:class:`CellModel` shares the cell's aggregate capacity among active UEs by
max-min fair allocation (water-filling): light users get their full offered
rate, heavy users split the remainder evenly.  Per-UE rates are additionally
capped by ``per_ue_peak_mbps`` (the UE category / MCS limit).
"""

from __future__ import annotations

from typing import Dict

from ..record import record
from ..sim.fairshare import max_min_share

DEFAULT_MAX_ACTIVE_UES = 96
DEFAULT_CELL_CAPACITY_MBPS = 150.0
DEFAULT_PER_UE_PEAK_MBPS = 40.0
#: One-way UE <-> RAN node signalling delay.
RADIO_DELAY = 0.02


class CellCapacityError(Exception):
    """Raised when admitting a UE would exceed the active-user limit."""


@record
class CellConfig:
    max_active_ues: int = DEFAULT_MAX_ACTIVE_UES
    capacity_mbps: float = DEFAULT_CELL_CAPACITY_MBPS
    per_ue_peak_mbps: float = DEFAULT_PER_UE_PEAK_MBPS

    def __post_init__(self):
        if self.max_active_ues < 1:
            raise ValueError("max_active_ues must be >= 1")
        if self.capacity_mbps <= 0 or self.per_ue_peak_mbps <= 0:
            raise ValueError("capacities must be positive")


class CellModel:
    """Tracks active UEs in one cell and computes their radio throughput."""

    def __init__(self, config: CellConfig = None):
        self.config = config or CellConfig()
        self._active: Dict[str, float] = {}  # ue id -> offered mbps

    def admit(self, ue_id: str) -> None:
        """Admit a UE to active state; raises if the cell is full."""
        if ue_id in self._active:
            return
        if len(self._active) >= self.config.max_active_ues:
            raise CellCapacityError(
                f"cell full: {self.config.max_active_ues} active UEs")
        self._active[ue_id] = 0.0

    def release(self, ue_id: str) -> None:
        self._active.pop(ue_id, None)

    def is_active(self, ue_id: str) -> bool:
        return ue_id in self._active

    def set_offered_rate(self, ue_id: str, mbps: float) -> None:
        if ue_id not in self._active:
            raise KeyError(f"UE {ue_id!r} is not active in this cell")
        if mbps < 0:
            raise ValueError("offered rate must be >= 0")
        self._active[ue_id] = mbps

    def allocate(self) -> Dict[str, float]:
        """Per-UE achieved radio rate given current offered rates."""
        return max_min_share(self._active, self.config.capacity_mbps,
                             self.config.per_ue_peak_mbps)
