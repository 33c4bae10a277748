"""Identifiers used across the LTE substrate and the core.

IMSI strings, TEID and bearer-id allocation, and the PLMN conventions the
test network uses (MCC 001 / MNC 01, the 3GPP test network).
"""

from __future__ import annotations

from typing import Iterable, Set

from ..record import record

TEST_PLMN = "00101"


def make_imsi(index: int, plmn: str = TEST_PLMN) -> str:
    """Build a 15-digit IMSI from a subscriber index (deterministic)."""
    if index < 0:
        raise ValueError("subscriber index must be >= 0")
    msin = f"{index:0{15 - len(plmn)}d}"
    if len(plmn) + len(msin) != 15:
        raise ValueError("PLMN too long for a 15-digit IMSI")
    return plmn + msin


class TeidAllocator:
    """Allocates unique GTP tunnel endpoint ids within one endpoint.

    Released ids are recycled LIFO through an O(1) free list.  Ids handed
    out (or seeded via :meth:`reserve` during crash-recovery restore) are
    tracked in ``_in_use`` so the allocator can never collide with a live
    tunnel - including ids restored from a checkpoint that the sequential
    counter has not reached yet, and ids double-released by buggy callers.
    """

    def __init__(self, start: int = 0x1000):
        self._start = start
        self._next = start
        self._free: list = []
        self._in_use: Set[int] = set()

    def allocate(self) -> int:
        while self._free:
            teid = self._free.pop()
            if teid not in self._in_use:   # lazy-deleted (reserved) entries
                self._in_use.add(teid)
                return teid
        while self._next in self._in_use:  # skip restore-time reservations
            self._next += 1
        teid = self._next
        self._next += 1
        self._in_use.add(teid)
        return teid

    def reserve(self, teid: int) -> None:
        """Mark ``teid`` as in use without allocating it (restore seeding).

        The free list is purged lazily: :meth:`allocate` skips entries that
        are marked in-use, so reserve stays O(1) even mid-lifecycle.
        """
        self._in_use.add(teid)

    def reserve_all(self, teids: Iterable[int]) -> None:
        """Bulk :meth:`reserve` for checkpoint restore paths."""
        self._in_use.update(teids)

    def release(self, teid: int) -> None:
        self._in_use.discard(teid)
        self._free.append(teid)

    def in_use_count(self) -> int:
        return len(self._in_use)

    def is_in_use(self, teid: int) -> bool:
        return teid in self._in_use


@record(frozen=True)
class Tai:
    """Tracking area identity."""

    plmn: str = TEST_PLMN
    tac: int = 1


@record(frozen=True)
class EcgI:
    """E-UTRAN cell global identifier."""

    plmn: str = TEST_PLMN
    cell_id: int = 0
