"""Unit tests for orchestrator components (store, metrics, bootstrap, alerts)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.orchestrator import (
    AlertManager,
    AlertRule,
    BootstrapError,
    Bootstrapper,
    ConfigStore,
    Metricsd,
    Sample,
    sign_challenge,
)


# -- config store -------------------------------------------------------------------


def test_store_put_get_and_version():
    store = ConfigStore()
    v1 = store.put("subscribers", "imsi1", {"policy": "gold"})
    v2 = store.put("subscribers", "imsi2", {"policy": "bronze"})
    assert v2 > v1
    assert store.version == v2
    assert store.get("subscribers", "imsi1") == {"policy": "gold"}
    assert store.get("subscribers", "missing") is None
    assert store.get("subscribers", "missing", "dflt") == "dflt"


def test_store_delete():
    store = ConfigStore()
    store.put("ns", "a", 1)
    store.delete("ns", "a")
    assert not store.contains("ns", "a")
    with pytest.raises(KeyError):
        store.delete("ns", "a")


def test_store_namespace_isolation():
    store = ConfigStore()
    store.put("subscribers", "x", 1)
    store.put("policies", "x", 2)
    assert store.namespace("subscribers") == {"x": 1}
    assert store.namespace("policies") == {"x": 2}
    assert store.keys("subscribers") == ["x"]


def test_store_wal_recovery_reproduces_state():
    store = ConfigStore()
    store.put("ns", "a", 1)
    store.put("ns", "b", 2)
    store.delete("ns", "a")
    store.put("ns", "c", {"nested": True})
    recovered = store.recover()
    assert recovered.namespace("ns") == {"b": 2, "c": {"nested": True}}
    assert recovered.version == store.version
    assert len(recovered.wal()) == len(store.wal())


def test_store_overwrite_bumps_version():
    store = ConfigStore()
    v1 = store.put("ns", "a", 1)
    v2 = store.put("ns", "a", 2)
    assert v2 == v1 + 1
    assert store.get("ns", "a") == 2


# -- metricsd ---------------------------------------------------------------------------


def test_metricsd_ingest_and_query():
    m = Metricsd()
    m.ingest("cpu", 0.5, time=1.0, labels={"gateway": "agw-1"})
    m.ingest("cpu", 0.7, time=2.0, labels={"gateway": "agw-1"})
    samples = m.query("cpu", {"gateway": "agw-1"})
    assert [s.value for s in samples] == [0.5, 0.7]
    assert m.latest("cpu", {"gateway": "agw-1"}).value == 0.7
    assert m.query("cpu", {"gateway": "other"}) == []


def test_metricsd_label_sets_and_sum():
    m = Metricsd()
    m.ingest("sessions", 5, time=1.0, labels={"gateway": "a"})
    m.ingest("sessions", 7, time=1.0, labels={"gateway": "b"})
    assert m.sum_latest("sessions") == 12
    assert len(m.label_sets("sessions")) == 2
    assert m.series_names() == ["sessions"]


def test_metricsd_retention_evicts_old_samples():
    m = Metricsd(retention=10.0)
    m.ingest("x", 1.0, time=0.0)
    m.ingest("x", 2.0, time=20.0)  # evicts the t=0 sample
    samples = m.query("x")
    assert [s.value for s in samples] == [2.0]
    assert m.stats["dropped_old"] == 1


def test_metricsd_bundle_ingest():
    m = Metricsd()
    m.ingest_bundle({"a": 1.0, "b": 2.0}, time=5.0, labels={"gw": "x"})
    assert m.latest("a", {"gw": "x"}).value == 1.0
    assert m.latest("b", {"gw": "x"}).value == 2.0


def metricsd_view(m, names, label_sets):
    """Everything a caller can read back, for whole-store comparison."""
    return {
        "stats": dict(m.stats),
        "names": m.series_names(),
        "series": {(name, tuple(sorted(labels.items()))): (
            m.query(name, labels), m.latest(name, labels))
            for name in names for labels in label_sets},
        "label_sets": {name: m.label_sets(name) for name in names},
        "sums": {name: m.sum_latest(name) for name in names},
    }


def assert_bundles_equal_single_ingests(bundles, **limits):
    """``bundles`` is [(metrics, time, labels)]; one store takes each as a
    bundle, the other the same samples through ``ingest`` one by one."""
    bundled, single = Metricsd(**limits), Metricsd(**limits)
    for metrics, time, labels in bundles:
        bundled.ingest_bundle(metrics, time, labels)
        for name, value in metrics.items():
            single.ingest(name, value, time, labels)
    names = sorted({name for metrics, _, _ in bundles for name in metrics})
    label_sets = [dict(frozen) for frozen in
                  sorted({tuple(sorted((labels or {}).items()))
                          for _, _, labels in bundles})]
    view = metricsd_view(bundled, names, label_sets)
    assert view == metricsd_view(single, names, label_sets)
    return bundled, view


def test_metricsd_late_backfill_past_retention_drops_the_whole_bundle():
    gw = {"gateway_id": "a"}
    m, view = assert_bundles_equal_single_ingests([
        ({"cpu": 0.5, "mem": 0.25}, 100.0, gw),
        ({"cpu": 0.9, "mem": 0.75, "disk": 0.5}, 40.0, gw),   # 60 s late
    ], retention=50.0)
    assert view["stats"] == {"ingested": 2, "dropped_old": 3}
    assert view["names"] == ["cpu", "mem"]         # "disk" never registered
    assert m.latest("cpu", gw).value == 0.5


def test_metricsd_out_of_order_bundle_never_becomes_latest():
    gw = {"gateway_id": "a"}
    m, view = assert_bundles_equal_single_ingests([
        ({"cpu": 0.5}, 100.0, gw),
        ({"cpu": 0.9}, 90.0, gw),                  # back-fill, within retention
        ({"cpu": 0.7}, 100.0, gw),                 # equal time: newest arrival
    ])
    assert [s.time for s in m.query("cpu", gw)] == [100.0, 90.0, 100.0]
    assert m.latest("cpu", gw) == Sample(time=100.0, value=0.7)
    assert view["stats"] == {"ingested": 3, "dropped_old": 0}


def test_metricsd_max_samples_eviction_of_the_current_latest():
    gw = {"gateway_id": "a"}
    m, view = assert_bundles_equal_single_ingests([
        ({"cpu": 0.9}, 100.0, gw),                 # latest, and the head
        ({"cpu": 0.1}, 80.0, gw),
        ({"cpu": 0.2}, 90.0, gw),                  # cap 2: evicts the head
    ], max_samples_per_series=2)
    assert m.latest("cpu", gw) == Sample(time=90.0, value=0.2)
    assert view["stats"] == {"ingested": 3, "dropped_old": 1}


def test_metricsd_series_drained_empty_stays_known():
    gw = {"gateway_id": "a"}
    # A zero cap evicts every sample as it lands: the only way the ingest
    # path itself (not a later clock move) leaves a series empty.
    m, view = assert_bundles_equal_single_ingests([
        ({"cpu": 0.9, "mem": 0.5}, 10.0, gw),
        ({"cpu": 0.8}, 20.0, gw),
    ], max_samples_per_series=0)
    assert view["stats"] == {"ingested": 3, "dropped_old": 3}
    assert m.query("cpu", gw) == [] and m.latest("cpu", gw) is None
    assert m.label_sets("cpu") == [gw]             # known, but sampleless
    assert m.sum_latest("cpu") == 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.dictionaries(st.sampled_from(["cpu", "mem", "disk"]),
                    st.floats(0.0, 1.0), max_size=3),
    st.integers(0, 40).map(float),
    st.sampled_from([None, {"gateway_id": "a"}, {"gateway_id": "b"}])),
    max_size=30))
def test_metricsd_ingest_bundle_equals_single_ingests(bundles):
    assert_bundles_equal_single_ingests(
        bundles, retention=10.0, max_samples_per_series=3)


# -- bootstrapper ---------------------------------------------------------------------------


def test_bootstrap_happy_path():
    b = Bootstrapper()
    b.preregister("agw-1", b"hw-key-1")
    challenge = b.request_challenge("agw-1")
    cert = b.complete("agw-1", sign_challenge(b"hw-key-1", challenge.nonce))
    assert cert.gateway_id == "agw-1"
    assert b.validate("agw-1", cert.token)
    assert b.is_enrolled("agw-1")


def test_bootstrap_unknown_gateway_rejected():
    b = Bootstrapper()
    with pytest.raises(BootstrapError, match="unknown"):
        b.request_challenge("ghost")


def test_bootstrap_bad_signature_rejected():
    b = Bootstrapper()
    b.preregister("agw-1", b"hw-key-1")
    challenge = b.request_challenge("agw-1")
    with pytest.raises(BootstrapError, match="signature"):
        b.complete("agw-1", sign_challenge(b"wrong-key", challenge.nonce))
    assert not b.is_enrolled("agw-1")


def test_bootstrap_challenge_single_use():
    b = Bootstrapper()
    b.preregister("agw-1", b"k")
    challenge = b.request_challenge("agw-1")
    b.complete("agw-1", sign_challenge(b"k", challenge.nonce))
    with pytest.raises(BootstrapError, match="challenge"):
        b.complete("agw-1", sign_challenge(b"k", challenge.nonce))


def test_bootstrap_cert_expiry():
    clock = {"now": 0.0}
    b = Bootstrapper(clock=lambda: clock["now"], cert_lifetime=100.0)
    b.preregister("agw-1", b"k")
    challenge = b.request_challenge("agw-1")
    cert = b.complete("agw-1", sign_challenge(b"k", challenge.nonce))
    assert b.validate("agw-1", cert.token)
    clock["now"] = 200.0
    assert not b.validate("agw-1", cert.token)


def test_bootstrap_validate_wrong_token():
    b = Bootstrapper()
    b.preregister("agw-1", b"k")
    challenge = b.request_challenge("agw-1")
    b.complete("agw-1", sign_challenge(b"k", challenge.nonce))
    assert not b.validate("agw-1", b"forged")
    assert not b.validate("never-enrolled", b"x")


# -- alerting ---------------------------------------------------------------------------------


def test_alerts_raise_and_resolve():
    offenders = {"list": []}
    manager = AlertManager()
    manager.add_rule(AlertRule(name="offline",
                               evaluate=lambda: offenders["list"],
                               message="gw offline"))
    assert manager.evaluate() == []
    offenders["list"] = ["agw-1"]
    new = manager.evaluate()
    assert len(new) == 1
    assert new[0].subject == "agw-1"
    # Still firing: no duplicate alert.
    assert manager.evaluate() == []
    assert len(manager.active_alerts()) == 1
    # Condition clears: alert resolves.
    offenders["list"] = []
    manager.evaluate()
    assert manager.active_alerts() == []
    assert len(manager.history()) == 1


def test_alert_duplicate_rule_rejected():
    manager = AlertManager()
    manager.add_rule(AlertRule(name="r", evaluate=lambda: []))
    with pytest.raises(ValueError):
        manager.add_rule(AlertRule(name="r", evaluate=lambda: []))
