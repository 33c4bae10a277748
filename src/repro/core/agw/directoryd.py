"""directoryd: subscriber location records within an AGW.

Maps an IMSI to where it was last seen (which frontend / RAN element).
Used for paging-like lookups and for mobility *within* the AGW: when a UE
moves between radios served by the same AGW, only this record and the
RAN-side tunnel endpoint change - the session (IP, policy state) stays put.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...record import record


@record
class LocationRecord:
    imsi: str
    frontend: str     # e.g. "s1ap", "ngap", "radius"
    location: str     # e.g. eNodeB id or AP id
    updated_at: float = 0.0


class Directoryd:
    """In-AGW location directory."""

    def __init__(self, clock=None):
        self._clock = clock or (lambda: 0.0)
        self._records: Dict[str, LocationRecord] = {}
        self.stats = {"updates": 0, "moves": 0}

    def update_location(self, imsi: str, frontend: str, location: str) -> None:
        existing = self._records.get(imsi)
        if existing is not None and (existing.location != location or
                                     existing.frontend != frontend):
            self.stats["moves"] += 1
        self._records[imsi] = LocationRecord(
            imsi=imsi, frontend=frontend, location=location,
            updated_at=self._clock())
        self.stats["updates"] += 1

    def lookup(self, imsi: str) -> Optional[LocationRecord]:
        return self._records.get(imsi)

    def remove(self, imsi: str) -> bool:
        return self._records.pop(imsi, None) is not None

    def count(self) -> int:
        return len(self._records)
