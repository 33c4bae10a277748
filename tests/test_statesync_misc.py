"""StateSync direct units + misc small-module coverage."""

from repro.core.agw import SubscriberProfile
from repro.core.orchestrator import ConfigStore, Metricsd, StateSync
from repro.experiments.common import format_table
from repro.sim import Simulator


def make_statesync():
    sim = Simulator()
    store = ConfigStore()
    metricsd = Metricsd()
    return sim, store, StateSync(sim, store, metricsd)


def checkin(sync, gateway_id, version=0, network_id="default", **extra):
    request = {"gateway_id": gateway_id, "config_version": version,
               "network_id": network_id}
    request.update(extra)
    return sync.handle_checkin(request)


def test_first_checkin_registers_gateway():
    sim, store, sync = make_statesync()
    response = checkin(sync, "agw-1")
    assert sync.gateway_count() == 1
    assert sync.gateway("agw-1").checkins == 1
    assert response["config_version"] == 0
    assert response["config"] is None  # already current (version 0 == 0)


def test_stale_gateway_receives_full_bundle():
    sim, store, sync = make_statesync()
    store.put("subscribers", "imsi1", SubscriberProfile(imsi="1" * 15))
    response = checkin(sync, "agw-1", version=0)
    assert response["config"] is not None
    assert "imsi1" in response["config"]["subscribers"]
    # Once caught up, no bundle is sent.
    response = checkin(sync, "agw-1", version=store.version)
    assert response["config"] is None


def test_stale_gateways_listing():
    sim, store, sync = make_statesync()
    checkin(sync, "agw-1", version=0)
    store.put("policies", "p", {"x": 1})
    assert sync.stale_gateways() == ["agw-1"]
    checkin(sync, "agw-1", version=store.version)
    assert sync.stale_gateways() == []


def test_offline_gateways_by_age():
    sim, store, sync = make_statesync()
    checkin(sync, "agw-1")
    sim.schedule(100.0, lambda: None)
    sim.run()
    checkin(sync, "agw-2")
    assert sync.offline_gateways(max_age=50.0) == ["agw-1"]
    assert sync.offline_gateways(max_age=500.0) == []


def test_bundle_cache_reused_until_version_changes():
    sim, store, sync = make_statesync()
    store.put("subscribers", "a", 1)
    bundle1 = sync.config_bundle()
    bundle2 = sync.config_bundle()
    assert bundle1 is bundle2
    store.put("subscribers", "b", 2)
    bundle3 = sync.config_bundle()
    assert bundle3 is not bundle1
    assert "b" in bundle3["subscribers"]


def test_checkin_metrics_land_in_metricsd():
    sim, store, sync = make_statesync()
    response = checkin(sync, "agw-1", metrics_backlog=[
        {"seq": 1, "time": 0.5, "metrics": {"sessions_active": 7.0}}])
    sample = sync.metricsd.latest("sessions_active", {"gateway_id": "agw-1"})
    assert (sample.time, sample.value) == (0.5, 7.0)
    assert response["metrics_ack"] == 1


def test_a_bare_metrics_bundle_is_not_ingested():
    """``metrics_backlog`` is the only metrics format a check-in carries."""
    sim, store, sync = make_statesync()
    response = checkin(sync, "agw-1", metrics={"sessions_active": 7.0})
    assert sync.metricsd.series_names() == []
    assert "metrics_ack" not in response


def test_bundles_isolated_per_network():
    sim, store, sync = make_statesync()
    store.put("subscribers", "a", 1)                 # default network
    store.put("subscribers@tenant", "b", 2)          # tenant network
    assert "a" in sync.config_bundle("default")["subscribers"]
    assert "a" not in sync.config_bundle("tenant")["subscribers"]
    assert "b" in sync.config_bundle("tenant")["subscribers"]


# -- format_table -----------------------------------------------------------------


def test_format_table_alignment_and_floats():
    text = format_table(["name", "value"],
                        [["short", 1.5], ["much-longer-name", 22.0]])
    lines = text.split("\n")
    assert lines[0].startswith("name")
    assert "1.50" in text
    assert "22.00" in text
    # All rows padded to the same width structure.
    assert len(lines) == 4


def test_format_table_empty_rows():
    text = format_table(["a", "b"], [])
    assert "a" in text and "b" in text


# -- versioned delta cache (check-in storm hot path) ------------------------------


def test_bundle_cache_survives_other_networks_version_bumps():
    sim, store, sync = make_statesync()
    store.put("subscribers", "a", 1)
    bundle1 = sync.config_bundle()
    # A different tenant's churn bumps the global version only.
    store.put("subscribers@tenant", "b", 2)
    store.put("policies@tenant", "p", 3)
    assert sync.config_bundle() is bundle1
    assert sync.stats["bundle_cache_hits"] >= 1
    # A write to one of *this* network's namespaces does invalidate.
    store.put("policies", "p", 4)
    assert sync.config_bundle() is not bundle1


def test_checkin_storm_rebuilds_bundle_once():
    sim, store, sync = make_statesync()
    store.put("subscribers", "x", 1)
    for i in range(200):
        response = checkin(sync, f"agw-{i}", version=0)
        assert response["config"] is not None
    assert sync.stats["config_pushes"] == 200
    assert sync.stats["bundle_rebuilds"] == 1
    assert sync.stats["bundle_cache_hits"] == 199


def test_checkin_elides_push_when_own_network_unchanged():
    sim, store, sync = make_statesync()
    store.put("subscribers@tenant", "b", 2)   # only the tenant changed
    response = checkin(sync, "agw-1", version=0)  # default-network gateway
    assert response["config"] is None             # no wasted full-state push
    assert response["config_version"] == store.version
    tenant = checkin(sync, "agw-t", version=0, network_id="tenant")
    assert tenant["config"] is not None


def test_network_config_version_tracks_own_namespaces():
    sim, store, sync = make_statesync()
    assert sync.network_config_version() == 0
    store.put("subscribers", "a", 1)
    v_default = store.version
    store.put("subscribers@tenant", "b", 2)
    assert sync.network_config_version("default") == v_default
    assert sync.network_config_version("tenant") == store.version


def test_namespace_versions_survive_store_recovery():
    store = ConfigStore()
    store.put("subscribers", "a", 1)
    store.put("policies", "p", 2)
    store.delete("subscribers", "a")
    recovered = store.recover()
    assert recovered.namespace_version("subscribers") == 3
    assert recovered.namespace_version("policies") == 2
    assert recovered.namespace_version("ran") == 0


def test_stale_gateways_scoped_per_network():
    """One tenant's write must not report every other tenant's gateways
    stale forever: staleness compares against the gateway's own network's
    config version, not the global store version."""
    sim, store, sync = make_statesync()
    checkin(sync, "agw-a", version=0, network_id="net-a")
    checkin(sync, "agw-b", version=0, network_id="net-b")
    assert sync.stale_gateways() == []
    store.put("policies@net-a", "p", {"x": 1})
    assert sync.stale_gateways() == ["agw-a"]
    checkin(sync, "agw-a", version=store.version, network_id="net-a")
    assert sync.stale_gateways() == []
