"""Policy enforcement through the AGW: rate limits, caps, online charging."""

import pytest

from repro.core.policy import MB, capped, prepaid, rate_limited
from repro.core.policy.ocs import OnlineChargingSystem
from repro.core.agw import SessionState
from repro.deploy import build


def attach_one(site):
    ue = site.ues[0]
    outcome = site.run_attach(ue)
    assert outcome.success
    site.sim.run(until=site.sim.now + 2.0)  # let ICS response land
    return ue


def test_unlimited_policy_admits_offered_rate():
    site = build(num_ues=1)
    ue = attach_one(site)
    admitted = site.agw.admitted_downlink(ue.imsi, 500.0)
    assert admitted == pytest.approx(500.0)


def test_rate_limit_shapes_downlink():
    site = build(num_ues=1, policy=rate_limited("bronze", 5.0))
    ue = attach_one(site)
    assert site.agw.admitted_downlink(ue.imsi, 100.0) == pytest.approx(5.0)
    assert site.agw.admitted_downlink(ue.imsi, 2.0) == pytest.approx(2.0)


def test_usage_cap_throttles_after_cap():
    """The paper's example policy: X Mbps until Y bytes, then Z Mbps."""
    site = build(
        num_ues=1,
        policy=capped("capped", mbps=10.0, cap_bytes=5 * MB,
                      throttled_mbps=1.0))
    ue = attach_one(site)
    imsi = ue.imsi
    assert site.agw.admitted_downlink(imsi, 100.0) == pytest.approx(10.0)
    # Consume past the cap.
    site.agw.sessiond.record_usage(imsi, dl_bytes=6 * MB, ul_bytes=0)
    assert site.agw.admitted_downlink(imsi, 100.0) == pytest.approx(1.0)
    session = site.agw.sessiond.session(imsi)
    assert session.installed_rate_mbps == pytest.approx(1.0)


def test_usage_cap_interval_resets():
    site = build(
        num_ues=1,
        policy=capped("daily", mbps=10.0, cap_bytes=1 * MB,
                      throttled_mbps=1.0, interval_s=100.0))
    ue = attach_one(site)
    imsi = ue.imsi
    site.agw.sessiond.record_usage(imsi, dl_bytes=2 * MB, ul_bytes=0)
    assert site.agw.admitted_downlink(imsi, 100.0) == pytest.approx(1.0)
    # After the interval, the cap resets and full rate returns.
    site.sim.run(until=site.sim.now + 101.0)
    site.agw.sessiond.record_usage(imsi, dl_bytes=0, ul_bytes=0)
    assert site.agw.admitted_downlink(imsi, 100.0) == pytest.approx(10.0)


def test_online_charging_grants_quota_on_attach():
    ocs = OnlineChargingSystem(quota_bytes=1 * MB)
    site = build(num_ues=1, ocs=ocs, policy=prepaid("prepaid", mbps=20.0))
    for imsi in site.imsis:
        ocs.provision(imsi, balance_bytes=10 * MB)
    ue = attach_one(site)
    session = site.agw.sessiond.session(ue.imsi)
    assert session.enforcement.quota_remaining == 1 * MB
    assert ocs.account(ue.imsi).reserved_bytes == 1 * MB


def test_online_charging_zero_balance_rejects_attach():
    ocs = OnlineChargingSystem(quota_bytes=1 * MB)
    site = build(num_ues=1, ocs=ocs, policy=prepaid("prepaid"))
    ocs.provision(site.imsis[0], balance_bytes=0)
    outcome = site.run_attach(site.ues[0])
    assert not outcome.success
    assert site.agw.sessiond.stats["quota_denials"] == 1


def test_online_charging_refills_quota_as_used():
    ocs = OnlineChargingSystem(quota_bytes=1 * MB)
    site = build(num_ues=1, ocs=ocs, policy=prepaid("prepaid"))
    ocs.provision(site.imsis[0], balance_bytes=10 * MB)
    ue = attach_one(site)
    imsi = ue.imsi
    # Use 90% of the first grant: crosses the refill threshold.
    site.agw.sessiond.record_usage(imsi, dl_bytes=900_000, ul_bytes=0)
    site.sim.run(until=site.sim.now + 2.0)
    assert site.agw.sessiond.stats["quota_refills"] >= 1
    session = site.agw.sessiond.session(imsi)
    assert session.enforcement.quota_remaining > 100_000
    # OCS charged the reported usage.
    assert ocs.account(imsi).charged_bytes >= 900_000


def test_online_charging_blocks_when_balance_gone():
    ocs = OnlineChargingSystem(quota_bytes=1 * MB)
    site = build(num_ues=1, ocs=ocs, policy=prepaid("prepaid"))
    ocs.provision(site.imsis[0], balance_bytes=1 * MB)  # exactly one grant
    ue = attach_one(site)
    imsi = ue.imsi
    site.agw.sessiond.record_usage(imsi, dl_bytes=1 * MB, ul_bytes=0)
    site.sim.run(until=site.sim.now + 2.0)
    session = site.agw.sessiond.session(imsi)
    assert session.state == SessionState.BLOCKED
    assert site.agw.admitted_downlink(imsi, 100.0) < 0.001


def test_online_charging_topup_unblocks():
    ocs = OnlineChargingSystem(quota_bytes=1 * MB)
    site = build(num_ues=1, ocs=ocs, policy=prepaid("prepaid", mbps=15.0))
    ocs.provision(site.imsis[0], balance_bytes=1 * MB)
    ue = attach_one(site)
    imsi = ue.imsi
    site.agw.sessiond.record_usage(imsi, dl_bytes=1 * MB, ul_bytes=0)
    site.sim.run(until=site.sim.now + 2.0)
    assert site.agw.sessiond.session(imsi).state == SessionState.BLOCKED
    ocs.account(imsi).balance_bytes += 5 * MB      # the user tops up
    # Next usage tick retries the refill.
    site.agw.sessiond.record_usage(imsi, dl_bytes=0, ul_bytes=0)
    site.sim.run(until=site.sim.now + 2.0)
    session = site.agw.sessiond.session(imsi)
    assert session.state == SessionState.ACTIVE
    assert site.agw.admitted_downlink(imsi, 100.0) == pytest.approx(15.0)


def test_detach_reports_final_usage_to_ocs():
    ocs = OnlineChargingSystem(quota_bytes=1 * MB)
    site = build(num_ues=1, ocs=ocs, policy=prepaid("prepaid"))
    ocs.provision(site.imsis[0], balance_bytes=10 * MB)
    ue = attach_one(site)
    imsi = ue.imsi
    site.agw.sessiond.record_usage(imsi, dl_bytes=400_000, ul_bytes=0)
    ue.detach()
    site.sim.run(until=site.sim.now + 2.0)
    account = ocs.account(imsi)
    assert account.charged_bytes == 400_000
    # The unused remainder of the grant was released, not charged.
    assert account.reserved_bytes == 0


def test_cdr_written_with_usage():
    site = build(num_ues=1)
    ue = attach_one(site)
    site.agw.sessiond.record_usage(ue.imsi, dl_bytes=1000, ul_bytes=200)
    ue.detach()
    site.sim.run(until=site.sim.now + 2.0)
    records = site.agw.accounting.records()
    assert len(records) == 1
    assert records[0].bytes_dl == 1000
    assert records[0].bytes_ul == 200
    assert records[0].total_bytes == 1200
