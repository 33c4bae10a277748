"""Ablation: the OCS quota double-spend bound (§3.4).

A strategic user moves between AGWs without reporting usage, trying to
consume data that is never charged.  The paper's claim: the maximum
double-spend is *capped by the quota size* - "a business decision".  We
sweep quota sizes, have a malicious user hop across AGWs consuming each
grant fully without final reports, and measure the unbilled bytes; the
bound holds at quota_size x concurrent-open-grants.
"""

from __future__ import annotations

from typing import List

from ..core.policy.ocs import OnlineChargingSystem
from ..record import record
from .common import format_table


@record
class DoubleSpendPoint:
    quota_bytes: int
    agw_hops: int
    consumed_bytes: int
    charged_bytes: int
    unbilled_bytes: int
    bound_bytes: int

    @property
    def bound_holds(self) -> bool:
        return self.unbilled_bytes <= self.bound_bytes


@record
class DoubleSpendResult:
    points: List[DoubleSpendPoint]

    def rows(self) -> List[List[object]]:
        return [[p.quota_bytes, p.agw_hops, p.consumed_bytes,
                 p.charged_bytes, p.unbilled_bytes, p.bound_bytes,
                 "yes" if p.bound_holds else "NO"]
                for p in self.points]

    def render(self) -> str:
        return ("Double-spend ablation: unbilled bytes vs quota size\n"
                + format_table(
                    ["quota_bytes", "agw_hops", "consumed", "charged",
                     "unbilled", "bound", "bound_holds"], self.rows()))


def run_double_spend_point(quota_bytes: int, agw_hops: int = 4,
                           balance_multiplier: int = 20,
                           reservation_ttl: float = 300.0) -> DoubleSpendPoint:
    clock = {"now": 0.0}
    ocs = OnlineChargingSystem(quota_bytes=quota_bytes,
                               reservation_ttl=reservation_ttl,
                               clock=lambda: clock["now"])
    imsi = "001010000000666"
    balance = quota_bytes * balance_multiplier
    ocs.provision(imsi, balance_bytes=balance)
    consumed = 0
    # The malicious pattern: at each AGW, obtain a grant, consume it fully,
    # then "move" without a final usage report.  The abandoned reservation
    # eventually expires and is released uncharged.
    for hop in range(agw_hops):
        grant = ocs.request_quota(imsi, f"agw-{hop}")
        if grant is None:
            break
        consumed += grant.granted_bytes
        # No report_usage: the user walks away mid-grant.
        clock["now"] += reservation_ttl + 1.0  # time passes between hops
    # Trigger expiry housekeeping.
    ocs.request_quota(imsi, "agw-final")
    account = ocs.account(imsi)
    unbilled = consumed - account.charged_bytes
    return DoubleSpendPoint(
        quota_bytes=quota_bytes, agw_hops=agw_hops,
        consumed_bytes=consumed, charged_bytes=account.charged_bytes,
        unbilled_bytes=unbilled,
        # The §3.4 bound: at most one open (unexpired) grant per hop can go
        # unbilled; with serial hops that is quota_size per hop.
        bound_bytes=quota_bytes * agw_hops)


def run_double_spend(quota_sizes=(100_000, 1_000_000, 10_000_000),
                     agw_hops: int = 4) -> DoubleSpendResult:
    points = [run_double_spend_point(q, agw_hops) for q in quota_sizes]
    return DoubleSpendResult(points=points)
