"""Checkpoint round-trip regressions for the findings reprolint surfaced.

The checkpoint-completeness rule found ``cumulative_quota_used`` silently
dropped from ``Sessiond`` snapshots (the same defect class as PR 1's ECM
``connected`` flag).  These tests pin the fix and guard the whole record:
every ``SessionRecord`` field must survive crash → restore, so a future
field that misses the serializer fails here *and* in the static pass.
"""

import dataclasses

from repro.core.agw.sessiond import SessionRecord
from repro.deploy import build


def attach_all(site, settle=2.0):
    events = [ue.attach() for ue in site.ues]
    site.sim.run(until=site.sim.now + 60.0)
    assert all(ev.value.success for ev in events)
    site.sim.run(until=site.sim.now + settle)


ENFORCEMENT_SCALARS = ("total_bytes", "interval_bytes", "interval_start",
                       "quota_remaining", "quota_grant_id")


def test_cumulative_quota_used_survives_recovery():
    site = build(num_ues=1)
    attach_all(site)
    imsi = site.imsis[0]
    site.agw.sessiond.record_usage(imsi, dl_bytes=5_000, ul_bytes=1_500)
    before = site.agw.sessiond.session(imsi).cumulative_quota_used
    assert before == 6_500

    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    site.agw.recover()
    after = site.agw.sessiond.session(imsi).cumulative_quota_used
    assert after == before


def test_every_sessionrecord_field_roundtrips():
    site = build(num_ues=2)
    attach_all(site)
    # Give the record non-default runtime state on several fields.
    site.agw.sessiond.record_usage(site.imsis[0], 10_000, 2_000)
    site.agw.sessiond.set_connected(site.imsis[1], False)

    originals = {imsi: site.agw.sessiond.session(imsi)
                 for imsi in site.imsis}
    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    site.agw.recover()

    for imsi, original in originals.items():
        restored = site.agw.sessiond.session(imsi)
        assert restored is not None
        for field in dataclasses.fields(SessionRecord):
            if field.name == "enforcement":
                continue  # object identity differs; scalars checked below
            assert getattr(restored, field.name) == \
                getattr(original, field.name), field.name
        for attr in ENFORCEMENT_SCALARS:
            assert getattr(restored.enforcement, attr) == \
                getattr(original.enforcement, attr), attr


def test_magmad_config_version_roundtrips():
    site = build(num_ues=1)
    attach_all(site)
    site.agw.magmad.config_version = 7
    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    site.agw.magmad.config_version = 0  # a fresh process starts at zero
    site.agw.recover()
    assert site.agw.magmad.config_version == 7


def test_mobilityd_assignments_rebuilt_consistently():
    site = build(num_ues=3)
    attach_all(site)
    assigned_before = {imsi: site.agw.mobilityd.lookup_ip(imsi)
                       for imsi in site.imsis}
    site.agw.magmad.checkpoint_now()
    site.agw.crash()
    site.agw.recover()
    for imsi, ip in assigned_before.items():
        assert site.agw.mobilityd.lookup_ip(imsi) == ip
        assert site.agw.mobilityd.lookup_imsi(ip) == imsi
    assert site.agw.mobilityd.assigned_count == 3
