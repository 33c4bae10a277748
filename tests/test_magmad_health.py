"""Direct tests for magmad (checkpointing/config) and the health service."""

from repro.core.agw import SubscriberProfile
from repro.core.policy import rate_limited
from repro.deploy import build


# -- magmad -----------------------------------------------------------------------


def test_checkpoint_snapshot_structure():
    site = build(num_ues=2)
    for ue in site.ues:
        assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    snapshot = site.agw.magmad.checkpoint_now()
    assert set(snapshot) == {"time", "sessions", "config_version"}
    entry = snapshot["sessions"][0]
    for key in ("imsi", "ue_ip", "policy_id", "agw_teid", "enb_teid",
                "state", "bytes_dl", "quota_remaining"):
        assert key in entry
    # The snapshot landed in the store.
    assert site.checkpoint_store.load("agw-1") is snapshot
    assert site.checkpoint_store.stats["saves"] >= 1


def test_apply_config_bundle_updates_all_stores():
    site = build(num_ues=1)
    bundle = {
        "subscribers": {"9" * 15: SubscriberProfile(imsi="9" * 15)},
        "policies": {"gold": rate_limited("gold", 99.0)},
        "ran": {"earfcn": 3350},
    }
    site.agw.magmad.apply_config(bundle, version=7)
    assert site.agw.subscriberdb.get("9" * 15) is not None
    assert site.agw.policydb.get("gold").rate_limit_mbps == 99.0
    assert site.agw.enodebd.desired_config == {"earfcn": 3350}
    assert site.agw.magmad.config_version == 7
    assert site.agw.magmad.stats["configs_applied"] == 1
    # Connected eNodeBs received the RAN config push.
    assert site.agw.enodebd.device("enb-1").config == {"earfcn": 3350}


def test_apply_partial_bundle_leaves_others():
    site = build(num_ues=1)
    before = len(site.agw.subscriberdb)
    site.agw.magmad.apply_config({"policies": {}}, version=3)
    assert len(site.agw.subscriberdb) == before  # untouched


def test_magmad_start_idempotent():
    site = build(num_ues=1)
    site.agw.magmad.start()
    site.agw.magmad.start()  # second call is a no-op
    site.sim.run(until=site.sim.now + 25.0)
    # Only one checkpoint loop: roughly interval-spaced checkpoints.
    assert site.agw.magmad.stats["checkpoints"] <= 4


# -- health -------------------------------------------------------------------------


def test_health_all_green_on_fresh_gateway():
    site = build(num_ues=1)
    assert all(check.healthy for check in site.agw.health.evaluate())
    summary = site.agw.health.summary()
    assert summary["healthy"] and summary["failing"] == []


def test_health_flags_crash():
    site = build(num_ues=1)
    site.agw.crash()
    checks = {c.name: c for c in site.agw.health.evaluate()}
    assert not checks["process"].healthy
    assert "process" in site.agw.health.summary()["failing"]


def test_health_flags_stale_ran_device():
    site = build(num_ues=1)
    site.sim.run(until=site.sim.now + 400.0)  # no heartbeats for > 300 s
    checks = {c.name: c for c in site.agw.health.evaluate()}
    assert not checks["ran-devices"].healthy
    assert "enb-1" in checks["ran-devices"].detail


def test_health_flags_reject_storm():
    site = build(num_ues=1)
    site.agw.mme.stats["attach_rejected"] = 50
    site.agw.mme.stats["attach_accepted"] = 10
    checks = {c.name: c for c in site.agw.health.evaluate()}
    assert not checks["attach-rejects"].healthy


def test_health_in_checkin_status():
    site = build(num_ues=1)
    status = site.agw.status_summary()
    assert status["health"]["healthy"] is True
