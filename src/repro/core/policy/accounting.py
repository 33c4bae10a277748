"""Accounting: charging data records (CDRs).

Magma handles *metering and accounting* while billing lives in the OCS/BSS
(§3.4).  ``sessiond`` emits a CDR when a session closes (or periodically for
long sessions); operators' business systems consume these.
"""

from __future__ import annotations

from typing import List

from ...record import record


@record(frozen=True)
class ChargingDataRecord:
    """One closed (or interim) accounting record."""

    imsi: str
    agw_id: str
    session_id: str
    start_time: float
    end_time: float
    bytes_dl: int
    bytes_ul: int
    policy_id: str
    interim: bool = False

    @property
    def total_bytes(self) -> int:
        return self.bytes_dl + self.bytes_ul

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class AccountingLog:
    """Append-only CDR log with per-subscriber aggregation."""

    def __init__(self):
        self._records: List[ChargingDataRecord] = []

    def append(self, record: ChargingDataRecord) -> None:
        if record.end_time < record.start_time:
            raise ValueError("CDR ends before it starts")
        self._records.append(record)

    def records(self) -> List[ChargingDataRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)
