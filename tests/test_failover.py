"""AGW failover to a backup instance and fail-back (§3.3)."""

import pytest

from repro.core.agw import AccessGateway
from repro.core.agw.failover import FailoverError, fail_back, promote_backup
from repro.deploy import build


def site_with_backup(num_ues=3):
    site = build(num_ues=num_ues)
    from repro.net import backhaul
    # The backup runs "as a cloud service": reachable from the site over
    # backhaul rather than the LAN.
    site.network.connect("agw-backup", "enb-1", backhaul.microwave())
    backup = AccessGateway(site.sim, site.network, "agw-backup",
                           checkpoint_store=site.checkpoint_store,
                           rng=site.rng.fork("backup"))
    # The backup holds the same cached config (subscribers/policies).
    for imsi in site.agw.subscriberdb.all_imsis():
        backup.subscriberdb.upsert(site.agw.subscriberdb.get(imsi))
    return site, backup


def attach_all(site):
    for ue in site.ues:
        assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)


def test_promote_backup_restores_sessions():
    site, backup = site_with_backup()
    attach_all(site)
    site.agw.magmad.checkpoint_now()
    ips = {imsi: site.agw.sessiond.session(imsi).ue_ip
           for imsi in site.imsis}
    site.agw.crash()
    restored = promote_backup(backup, "agw-1")
    assert restored == 3
    for imsi in site.imsis:
        session = backup.sessiond.session(imsi)
        assert session is not None
        assert session.ue_ip == ips[imsi]
        assert backup.pipelined.has_session(imsi)


def test_enb_retargets_to_backup_and_new_attaches_work():
    site, backup = site_with_backup(num_ues=3)
    first, second = site.ues[:2]
    assert site.run_attach(first).success
    site.sim.run(until=site.sim.now + 2.0)
    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    promote_backup(backup, "agw-1")
    done = site.enbs[0].retarget_core("agw-backup")
    response = site.sim.run_until_triggered(done,
                                            limit=site.sim.now + 30.0)
    assert response.accepted
    # A new UE attaches through the backup.
    outcome = site.run_attach(second)
    assert outcome.success
    assert backup.sessiond.session(second.imsi) is not None
    # The restored UE's traffic is served by the backup's data plane.
    assert backup.admitted_downlink(first.imsi, 5.0) == pytest.approx(5.0)


def test_fail_back_returns_sessions_to_primary():
    site, backup = site_with_backup()
    attach_all(site)
    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    promote_backup(backup, "agw-1")
    # While the backup serves, usage accrues.
    backup.sessiond.record_usage(site.imsis[0], dl_bytes=5000, ul_bytes=0)
    site.agw.recover(from_checkpoint=False)
    returned = fail_back(site.agw, backup)
    assert returned == 3
    assert backup.sessiond.session_count() == 0
    session = site.agw.sessiond.session(site.imsis[0])
    assert session is not None
    assert session.bytes_dl >= 5000  # updated state came back


def test_fail_back_leaves_the_backup_with_no_ue_contexts():
    """A UE that attached through the backup leaves a context there;
    stepping down wipes it with the rest of the runtime state."""
    site, backup = site_with_backup(num_ues=3)
    first, second = site.ues[:2]
    assert site.run_attach(first).success
    site.sim.run(until=site.sim.now + 2.0)
    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    promote_backup(backup, "agw-1")
    done = site.enbs[0].retarget_core("agw-backup")
    response = site.sim.run_until_triggered(done,
                                            limit=site.sim.now + 30.0)
    assert response.accepted
    assert site.run_attach(second).success
    assert len(backup.mme.contexts) == 1
    site.agw.recover(from_checkpoint=False)
    assert fail_back(site.agw, backup) == 2
    assert backup.mme.contexts == {}
    assert backup.mme._by_imsi == {}
    assert backup.sessiond.session_count() == 0
    assert list(backup.pipelined.installed_imsis()) == []


def test_promote_requires_checkpoint():
    site, backup = site_with_backup()
    attach_all(site)
    site.agw.crash()
    # No checkpoint was ever written for a bogus node name.
    with pytest.raises(FailoverError, match="no checkpoint"):
        promote_backup(backup, "agw-nonexistent")


def test_promote_rejects_busy_backup():
    site, backup = site_with_backup()
    attach_all(site)
    site.agw.magmad.checkpoint_now()
    promote_backup(backup, "agw-1")
    with pytest.raises(FailoverError, match="already serves"):
        promote_backup(backup, "agw-1")


def test_promote_rejects_crashed_backup():
    site, backup = site_with_backup()
    attach_all(site)
    site.agw.magmad.checkpoint_now()
    backup.crash()
    with pytest.raises(FailoverError, match="itself down"):
        promote_backup(backup, "agw-1")


def test_fail_back_requires_recovered_primary():
    site, backup = site_with_backup()
    attach_all(site)
    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    promote_backup(backup, "agw-1")
    with pytest.raises(FailoverError, match="not recovered"):
        fail_back(site.agw, backup)


def test_idle_ecm_state_round_trips_through_checkpoint_restore():
    """Idle UEs must resurrect idle: a restored-as-connected UE would break
    paging after failover (the checkpoint used to drop the flag)."""
    site, backup = site_with_backup()
    attach_all(site)
    idle_imsi, connected_imsi = site.imsis[0], site.imsis[1]
    site.agw.sessiond.set_connected(idle_imsi, False)
    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    promote_backup(backup, "agw-1")
    assert backup.sessiond.session(idle_imsi).connected is False
    assert backup.sessiond.session(connected_imsi).connected is True


def test_attach_after_promotion_avoids_restored_identifiers():
    """The promoted backup's fresh allocators must skip everything the
    restored sessions hold (TEIDs, IPs) - the seed behaviour collided."""
    site, backup = site_with_backup(num_ues=2)
    first, second = site.ues[:2]
    assert site.run_attach(first).success
    site.sim.run(until=site.sim.now + 2.0)
    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    promote_backup(backup, "agw-1")
    done = site.enbs[0].retarget_core("agw-backup")
    response = site.sim.run_until_triggered(done, limit=site.sim.now + 30.0)
    assert response.accepted
    assert site.run_attach(second).success
    restored = backup.sessiond.session(first.imsi)
    fresh = backup.sessiond.session(second.imsi)
    assert fresh.agw_teid != restored.agw_teid
    assert fresh.ue_ip != restored.ue_ip
    assert fresh.session_id != restored.session_id
