"""Last-mile edge cases across modules."""

import pytest

from repro.deploy import build


def test_handover_target_agw_unreachable_fails_cleanly():
    """Handover to a radio whose AGW link is down: the UE keeps service."""
    site = build(num_enbs=2, num_ues=1)
    ue = site.ues[0]
    assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    # Sever the target eNB from the AGW mid-handover.
    site.network.set_node_up("enb-2", False)
    done = ue.handover_to(site.enbs[1])
    ok = site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    assert not ok
    assert site.agw.sessiond.session(ue.imsi) is not None
    from repro.lte import UeState
    assert ue.state == UeState.REGISTERED


def test_failover_without_store_raises():
    from repro.core.agw import AccessGateway
    from repro.core.agw.failover import FailoverError, promote_backup
    site = build(num_ues=1)
    backup = AccessGateway(site.sim, site.network, "agw-nostore",
                           rng=site.rng.fork("nostore"))
    with pytest.raises(FailoverError, match="no checkpoint store"):
        promote_backup(backup, "agw-1")


def test_fig9_hourly_series_shape():
    from repro.experiments.fig9_accessparks import run_fig9
    from repro.workloads.diurnal import DiurnalConfig
    result = run_fig9(DiurnalConfig(days=2), seed=5)
    series = [(s.hour_index, s.active_subscribers, s.throughput_mbps)
              for s in result.samples]
    assert len(series) == 48
    hour_indexes = [row[0] for row in series]
    assert hour_indexes == sorted(hour_indexes)
    assert all(subs >= 0 and mbps >= 0 for _h, subs, mbps in series)


def test_gateway_metrics_summary_fields():
    site = build(num_ues=1)
    assert site.run_attach(site.ues[0]).success
    site.sim.run(until=site.sim.now + 2.0)
    metrics = site.agw.metrics_summary()
    assert metrics["attach_requests"] == 1.0
    assert metrics["attach_accepted"] == 1.0
    assert metrics["sessions_active"] == 1.0


def test_ue_attach_while_attaching_rejected_fast():
    site = build(num_ues=1)
    ue = site.ues[0]
    first = ue.attach()
    second = ue.attach()  # immediately: still ATTACHING
    outcome = site.sim.run_until_triggered(second, limit=5.0)
    assert not outcome.success
    assert "bad state" in outcome.cause
    site.sim.run_until_triggered(first, limit=120.0)


def test_ue_set_offered_rate_validation():
    site = build(num_ues=1)
    with pytest.raises(ValueError):
        site.ues[0].set_offered_rate(-1.0)


def test_attach_is_counted_and_timed_by_the_accepting_mme():
    site = build(num_ues=1)
    assert site.run_attach(site.ues[0]).success
    site.sim.run(until=site.sim.now + 2.0)
    mme = site.agw.mme
    assert mme.stats["attach_accepted"] == 1
    assert mme.attach_latency.count == 1
    assert site.monitor.series("attach.latency.agw-1") is mme.attach_latency


def test_switch_stats_request_filtered_by_table():
    from repro.dataplane import StatsRequest
    site = build(num_ues=1)
    assert site.run_attach(site.ues[0]).success
    site.sim.run(until=site.sim.now + 2.0)
    reply_t0 = site.agw.pipelined.switch.apply(StatsRequest(table_id=0))
    reply_all = site.agw.pipelined.switch.apply(StatsRequest())
    assert len(reply_t0.entries) < len(reply_all.entries)
    assert all(e.table_id == 0 for e in reply_t0.entries)
