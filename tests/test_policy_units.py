"""Direct unit tests for policy rules, enforcement, OCS, and accounting."""

import pytest

from repro.core.policy import (
    AccountingLog,
    ChargingDataRecord,
    ChargingMode,
    EnforcementState,
    MB,
    PolicyRule,
    UNLIMITED_MBPS,
    capped,
    prepaid,
    rate_limited,
    unlimited,
)
from repro.core.policy.ocs import OcsError, OnlineChargingSystem


# -- rules ------------------------------------------------------------------------


def test_policy_constructors():
    assert unlimited().rate_limit_mbps is None
    assert rate_limited("r", 5.0).rate_limit_mbps == 5.0
    policy = capped("c", mbps=10.0, cap_bytes=MB, throttled_mbps=1.0,
                    interval_s=3600.0)
    assert policy.cap_interval_s == 3600.0
    assert prepaid("p").charging == ChargingMode.ONLINE


def test_policy_validation():
    with pytest.raises(ValueError):
        PolicyRule(policy_id="x", rate_limit_mbps=0)
    with pytest.raises(ValueError):
        PolicyRule(policy_id="x", usage_cap_bytes=0)
    with pytest.raises(ValueError):
        PolicyRule(policy_id="x", throttled_rate_mbps=1.0)  # needs a cap
    with pytest.raises(ValueError):
        PolicyRule(policy_id="x", charging="barter")


# -- enforcement -----------------------------------------------------------------------


def test_enforcer_unlimited_policy():
    state = EnforcementState(unlimited())
    decision = state.decide(0.0)
    assert decision.allowed_mbps == UNLIMITED_MBPS
    assert not decision.throttled and not decision.blocked


def test_enforcer_cap_without_throttle_blocks():
    policy = PolicyRule(policy_id="hard-cap", rate_limit_mbps=10.0,
                        usage_cap_bytes=100)
    state = EnforcementState(policy)
    state.record_usage(200, 0.0)
    decision = state.decide(0.0)
    assert decision.blocked and decision.throttled
    assert decision.allowed_mbps == 0.0


def test_enforcer_interval_rollover_is_aligned():
    policy = capped("daily", mbps=10.0, cap_bytes=100, throttled_mbps=1.0,
                    interval_s=10.0)
    state = EnforcementState(policy, session_start=0.0)
    state.record_usage(150, 1.0)
    assert state.decide(5.0).throttled
    # Crossing several intervals at once realigns to the boundary.
    assert not state.decide(25.0).throttled
    assert state.interval_start == 20.0
    assert state.interval_bytes == 0


def test_enforcer_online_quota_lifecycle():
    state = EnforcementState(prepaid("p", mbps=5.0))
    # No quota yet: blocked and asking for one.
    decision = state.decide(0.0)
    assert decision.blocked and decision.needs_quota
    state.add_quota(grant_id=1, granted_bytes=1000)
    decision = state.decide(0.0)
    assert not decision.blocked
    assert decision.allowed_mbps == 5.0
    # Below the refill threshold (20% of the grant): request more.
    state.record_usage(850, 0.0)
    assert state.decide(0.0).needs_quota
    state.record_usage(200, 0.0)  # quota gone (floor at 0)
    assert state.quota_remaining == 0
    assert state.decide(0.0).blocked


def test_enforcer_usage_validation():
    state = EnforcementState(unlimited())
    with pytest.raises(ValueError):
        state.record_usage(-1, 0.0)


# -- OCS errors and edge cases ---------------------------------------------------------------


def test_ocs_unknown_account():
    ocs = OnlineChargingSystem()
    with pytest.raises(OcsError):
        ocs.request_quota("ghost", "agw-1")
    with pytest.raises(OcsError):
        ocs.account("ghost")


def test_ocs_grant_capped_by_balance():
    ocs = OnlineChargingSystem(quota_bytes=1_000_000)
    ocs.provision("imsi", balance_bytes=300_000)
    grant = ocs.request_quota("imsi", "agw-1")
    assert grant.granted_bytes == 300_000
    assert ocs.request_quota("imsi", "agw-1") is None
    assert ocs.stats["denials"] == 1


def test_ocs_usage_report_validation():
    ocs = OnlineChargingSystem(quota_bytes=1_000_000)
    ocs.provision("imsi", balance_bytes=5_000_000)
    grant = ocs.request_quota("imsi", "agw-1")
    ocs.report_usage(grant.grant_id, 500_000)
    with pytest.raises(OcsError, match="monotonic"):
        ocs.report_usage(grant.grant_id, 400_000)
    ocs.report_usage(grant.grant_id, 800_000, final=True)
    with pytest.raises(OcsError, match="closed"):
        ocs.report_usage(grant.grant_id, 900_000)
    account = ocs.account("imsi")
    assert account.charged_bytes == 800_000
    assert account.reserved_bytes == 0


def test_ocs_usage_clamped_to_grant():
    ocs = OnlineChargingSystem(quota_bytes=1_000_000)
    ocs.provision("imsi", balance_bytes=5_000_000)
    grant = ocs.request_quota("imsi", "agw-1")
    ocs.report_usage(grant.grant_id, 2_000_000, final=True)  # over-report
    assert ocs.account("imsi").charged_bytes == 1_000_000


def test_ocs_reservation_expiry_releases_uncharged():
    clock = {"now": 0.0}
    ocs = OnlineChargingSystem(quota_bytes=1_000_000, reservation_ttl=100.0,
                               clock=lambda: clock["now"])
    ocs.provision("imsi", balance_bytes=1_000_000)
    ocs.request_quota("imsi", "agw-1")
    assert ocs.account("imsi").available_bytes == 0
    clock["now"] = 200.0
    # Housekeeping on the next request releases the stale reservation.
    grant = ocs.request_quota("imsi", "agw-2")
    assert grant is not None
    assert ocs.stats["expired_reservations"] == 1


def test_ocs_unbilled_exposure():
    ocs = OnlineChargingSystem(quota_bytes=1_000_000)
    ocs.provision("imsi", balance_bytes=10_000_000)
    g1 = ocs.request_quota("imsi", "agw-1")
    ocs.request_quota("imsi", "agw-2")
    # Open grants' unreported remainders stay reserved: at most one quota
    # per AGW could go unbilled.
    assert ocs.account("imsi").reserved_bytes == 2_000_000
    ocs.report_usage(g1.grant_id, 400_000)
    assert ocs.account("imsi").reserved_bytes == 1_600_000


def test_ocs_validation():
    with pytest.raises(ValueError):
        OnlineChargingSystem(quota_bytes=0)
    ocs = OnlineChargingSystem()
    with pytest.raises(ValueError):
        ocs.provision("imsi", balance_bytes=-1)


def test_ocs_topup():
    ocs = OnlineChargingSystem(quota_bytes=1_000_000)
    ocs.provision("imsi", balance_bytes=0)
    assert ocs.request_quota("imsi", "agw-1") is None
    ocs.account("imsi").balance_bytes += 2_000_000
    assert ocs.request_quota("imsi", "agw-1") is not None


# -- accounting ----------------------------------------------------------------------------------


def test_cdr_properties():
    record = ChargingDataRecord(imsi="i", agw_id="a", session_id="s",
                                start_time=10.0, end_time=40.0,
                                bytes_dl=100, bytes_ul=20, policy_id="p")
    assert record.total_bytes == 120
    assert record.duration == 30.0


def test_accounting_log_rollups():
    log = AccountingLog()
    log.append(ChargingDataRecord(imsi="a", agw_id="g", session_id="1",
                                  start_time=0, end_time=1, bytes_dl=10,
                                  bytes_ul=0, policy_id="p"))
    log.append(ChargingDataRecord(imsi="a", agw_id="g", session_id="2",
                                  start_time=1, end_time=2, bytes_dl=5,
                                  bytes_ul=5, policy_id="p"))
    log.append(ChargingDataRecord(imsi="b", agw_id="g", session_id="3",
                                  start_time=0, end_time=1, bytes_dl=7,
                                  bytes_ul=0, policy_id="p"))
    assert len(log) == 3
    assert [(r.imsi, r.total_bytes) for r in log.records()] == \
        [("a", 10), ("a", 10), ("b", 7)]


def test_accounting_rejects_time_travel():
    log = AccountingLog()
    with pytest.raises(ValueError):
        log.append(ChargingDataRecord(imsi="a", agw_id="g", session_id="1",
                                      start_time=5, end_time=1, bytes_dl=0,
                                      bytes_ul=0, policy_id="p"))
