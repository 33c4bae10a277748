"""Direct unit tests for individual AGW services."""

import pytest

from repro.core.agw import (
    AgwConfig,
    AgwContext,
    Directoryd,
    Enodebd,
    IpPoolExhausted,
    Mobilityd,
    Pipelined,
    PolicyDb,
    SubscriberDb,
    SubscriberProfile,
    virtual_profile,
)
from repro.core.policy import rate_limited
from repro.net import Network
from repro.obs import Tracer
from repro.sim import RngRegistry, Simulator


def make_context(node="agw-t"):
    sim = Simulator()
    network = Network(sim)
    return AgwContext(sim, network, node)


# -- subscriberdb ---------------------------------------------------------------


def test_subscriberdb_crud():
    db = SubscriberDb()
    profile = SubscriberProfile(imsi="1" * 15, k=bytes(16), opc=bytes(16))
    db.upsert(profile)
    assert db.get("1" * 15) is profile
    assert len(db) == 1
    assert db.delete("1" * 15)
    assert not db.delete("1" * 15)
    assert db.get("1" * 15) is None


def test_subscriberdb_inactive_hidden():
    db = SubscriberDb()
    db.upsert(SubscriberProfile(imsi="1" * 15, active=False))
    assert db.get("1" * 15) is None
    assert len(db) == 1  # still stored, just not served


def test_subscriberdb_desired_state_replaces_everything():
    db = SubscriberDb()
    db.upsert(SubscriberProfile(imsi="1" * 15))
    db.apply_desired_state({"2" * 15: SubscriberProfile(imsi="2" * 15)},
                           version=9)
    assert db.get("1" * 15) is None
    assert db.get("2" * 15) is not None
    assert db.version == 9
    assert db.all_imsis() == ["2" * 15]


def test_subscriberdb_sqn_monotonic():
    db = SubscriberDb()
    assert db.next_sqn("x") == 1
    assert db.next_sqn("x") == 2
    assert db.next_sqn("y") == 1


def test_subscriberdb_auth_vector_requires_credentials():
    db = SubscriberDb()
    db.upsert(SubscriberProfile(imsi="1" * 15))  # no K/OPc
    with pytest.raises(KeyError):
        db.generate_auth_vector("1" * 15, bytes(16))
    with pytest.raises(KeyError):
        db.generate_auth_vector("unknown", bytes(16))


# -- policydb ----------------------------------------------------------------------


def test_policydb_default_fallback():
    db = PolicyDb()
    assert db.get("nonexistent").policy_id == "default"
    db.upsert(rate_limited("gold", 100.0))
    assert db.get("gold").rate_limit_mbps == 100.0
    assert db.has("gold") and not db.has("silver")


def test_policydb_desired_state_preserves_default():
    db = PolicyDb()
    db.apply_desired_state({"gold": rate_limited("gold", 50.0)}, version=3)
    assert db.get("default").policy_id == "default"
    assert db.get("gold").rate_limit_mbps == 50.0
    assert db.version == 3
    assert len(db) == 2


# -- mobilityd ----------------------------------------------------------------------


def test_mobilityd_pool_exhaustion():
    mobilityd = Mobilityd("10.0.0.0/30")  # 2 usable hosts
    mobilityd.allocate("a" * 15)
    mobilityd.allocate("b" * 15)
    with pytest.raises(IpPoolExhausted):
        mobilityd.allocate("c" * 15)
    mobilityd.release("a" * 15)
    assert mobilityd.allocate("c" * 15)  # freed address reused


def test_mobilityd_restore():
    mobilityd = Mobilityd("10.0.0.0/24")
    mobilityd.restore({"a" * 15: "10.0.0.7"})
    assert mobilityd.lookup_ip("a" * 15) == "10.0.0.7"
    assert mobilityd.lookup_imsi("10.0.0.7") == "a" * 15
    assert mobilityd.assigned_count == 1


def test_mobilityd_release_unknown_is_noop():
    mobilityd = Mobilityd()
    assert mobilityd.release("nobody") is None


# -- directoryd -----------------------------------------------------------------------


def test_directoryd_basic():
    clock = {"now": 5.0}
    directory = Directoryd(clock=lambda: clock["now"])
    directory.update_location("imsi1", "s1ap", "enb-1")
    record = directory.lookup("imsi1")
    assert record.updated_at == 5.0
    assert directory.count() == 1
    assert directory.stats["moves"] == 0
    clock["now"] = 6.0
    directory.update_location("imsi1", "s1ap", "enb-2")
    assert directory.stats["moves"] == 1
    assert directory.remove("imsi1")
    assert not directory.remove("imsi1")
    assert directory.lookup("imsi1") is None


# -- enodebd ---------------------------------------------------------------------------


def test_enodebd_registration_and_config_push():
    clock = {"now": 0.0}
    enodebd = Enodebd(clock=lambda: clock["now"])
    enodebd.apply_desired_config({"earfcn": 42}, version=1)
    device = enodebd.register("enb-1")
    assert device.config == {"earfcn": 42}
    assert device.config_version == 1
    # New config pushes to existing devices.
    enodebd.apply_desired_config({"earfcn": 43}, version=2)
    assert enodebd.device("enb-1").config == {"earfcn": 43}
    assert enodebd.stats["config_pushes"] == 2


def test_enodebd_applies_every_leaf_delta_of_one_digest_walk():
    # A digest walk hands over one delta per divergent leaf bucket, all
    # stamped with the same version (ReconcileClient.feed).
    enodebd = Enodebd()
    enodebd.apply_desired_config({"old": 1}, version=4)
    device = enodebd.register("enb-1")
    enodebd.apply_desired_delta({"earfcn": 2}, [], 5)
    enodebd.apply_desired_delta({"tx_power": 20}, ["old"], 5)
    assert enodebd.desired_config == {"earfcn": 2, "tx_power": 20}
    assert device.config == enodebd.desired_config
    assert device.config_version == 5
    assert enodebd.stats["config_pushes"] == 3
    # Registration still only pushes to a device that is behind.
    enodebd.register("enb-1")
    assert enodebd.stats["config_pushes"] == 3
    assert enodebd.register("enb-2").config == enodebd.desired_config
    assert enodebd.stats["config_pushes"] == 4


def test_enodebd_stale_devices():
    clock = {"now": 0.0}
    enodebd = Enodebd(clock=lambda: clock["now"])
    enodebd.register("enb-1")
    enodebd.register("enb-2")
    clock["now"] = 100.0
    enodebd.heartbeat("enb-2")
    assert enodebd.stale_devices(max_age=50.0) == ["enb-1"]
    assert enodebd.count() == 2


def test_enodebd_reregistration_updates_last_seen():
    clock = {"now": 0.0}
    enodebd = Enodebd(clock=lambda: clock["now"])
    enodebd.register("enb-1")
    clock["now"] = 10.0
    enodebd.register("enb-1")
    assert enodebd.stats["registrations"] == 1
    assert enodebd.device("enb-1").last_seen == 10.0


# -- pipelined (direct) ----------------------------------------------------------------------


def test_pipelined_install_and_remove():
    context = make_context()
    pipelined = Pipelined(context)
    flows = pipelined.install_session("imsi1", "10.128.0.5", 0x100, 20.0)
    assert pipelined.has_session("imsi1")
    assert flows.rate_mbps == 20.0
    assert pipelined.session_count() == 1
    # Downlink incomplete until the eNB tunnel is set.
    assert pipelined.admitted_downlink_rate("imsi1", 50.0) == 0.0
    pipelined.set_enb_tunnel("imsi1", 0x200, "enb-x")
    assert pipelined.admitted_downlink_rate("imsi1", 50.0) == 20.0
    assert pipelined.remove_session("imsi1")
    assert not pipelined.remove_session("imsi1")
    assert not pipelined.has_session("imsi1")


def test_pipelined_reinstall_replaces():
    context = make_context()
    pipelined = Pipelined(context)
    pipelined.install_session("imsi1", "10.128.0.5", 0x100, 20.0)
    pipelined.install_session("imsi1", "10.128.0.6", 0x101, 5.0)
    assert pipelined.session_count() == 1
    assert pipelined.session("imsi1").ue_ip == "10.128.0.6"


def test_pipelined_rate_change():
    context = make_context()
    pipelined = Pipelined(context)
    pipelined.install_session("imsi1", "10.128.0.5", 0x100, 20.0)
    pipelined.set_enb_tunnel("imsi1", 0x200, "enb-x")
    pipelined.set_session_rate("imsi1", 2.0)
    assert pipelined.admitted_downlink_rate("imsi1", 50.0) == 2.0
    assert pipelined.stats["rate_changes"] == 1
    with pytest.raises(KeyError):
        pipelined.set_session_rate("ghost", 1.0)


def test_pipelined_invalid_egress_rejected():
    context = make_context()
    pipelined = Pipelined(context)
    with pytest.raises(ValueError):
        pipelined.install_session("imsi1", "ip", 1, 10.0,
                                  egress_port="warp-drive")


def test_a_bad_egress_port_leaves_an_installed_session_as_it_was():
    context = make_context()
    tracer = Tracer(context.sim, RngRegistry(1))
    pipelined = Pipelined(context)

    def state():
        return ([t["rules"] for t in pipelined.datapath_stats()["tables"]],
                sorted(pipelined.switch.meters),
                pipelined.has_session("imsi1"), tracer.spans)

    root = tracer.start_trace("procedure")
    with root.active():
        pipelined.install_session("imsi1", "10.128.0.5", 0x100, 20.0)
        pipelined.set_enb_tunnel("imsi1", 0x200, "enb-x")
        before = state()
        with pytest.raises(ValueError):
            pipelined.install_session("imsi1", "10.128.0.6", 0x101, 5.0,
                                      egress_port="bogus")
        assert state() == before
    root.end()
    assert before[:3] == ([2, 1, 2], [1], True)
    assert [span.name for span in tracer.spans] == \
        ["procedure", "pipelined.install_session"]
    assert all(span.finished for span in tracer.spans)


def test_pipelined_fluid_usage_recorded():
    context = make_context()
    pipelined = Pipelined(context)
    pipelined.install_session("imsi1", "10.128.0.5", 0x100, None)
    pipelined.record_fluid_usage("imsi1", mbps=8.0, duration=2.0)
    assert pipelined.session_byte_count("imsi1") == int(8e6 / 8 * 2)


# -- hardware profiles ---------------------------------------------------------------------------


def test_virtual_profile_scaling():
    profile = virtual_profile(16)
    assert profile.cores == 16
    assert profile.attach_capacity_per_sec() == pytest.approx(64.0)
    assert 1 / profile.up_cost_per_mbps == pytest.approx(500.0)  # per core
    with pytest.raises(ValueError):
        virtual_profile(0)


def test_agw_config_defaults():
    config = AgwConfig()
    assert config.deployment_mode == "standalone"
    assert config.feg_node is None
    assert config.hardware.name.startswith("bare-metal")


# -- pipelined batch transactions ------------------------------------------------


def test_pipelined_batch_commits_one_bundle():
    context = make_context()
    pipelined = Pipelined(context)
    with pipelined.batch():
        for i in range(5):
            pipelined.install_session(f"imsi{i}", f"10.128.0.{i + 1}",
                                      0x100 + i, 20.0)
            pipelined.set_enb_tunnel(f"imsi{i}", 0x200 + i, "enb-x")
        assert pipelined.in_batch()
        # Nothing reaches the switch before commit.
        assert len(pipelined.switch.tables[0]) == 0
    assert not pipelined.in_batch()
    assert pipelined.switch.stats["bundles"] == 1
    assert pipelined.switch.stats["control_msgs"] == 1
    assert pipelined.session_count() == 5
    assert len(pipelined.switch.tables[0]) == 10  # 2 classify rules/session
    # Batched sessions behave exactly like individually-programmed ones.
    assert pipelined.admitted_downlink_rate("imsi0", 50.0) == 20.0


def test_pipelined_batch_discards_on_error():
    context = make_context()
    pipelined = Pipelined(context)
    pipelined.install_session("imsiA", "10.128.0.4", 0x99, 20.0)
    pipelined.set_enb_tunnel("imsiA", 0x199, "enb-a")
    rules_before = [len(table) for table in pipelined.switch.tables]
    stats_before = dict(pipelined.stats)
    with pytest.raises(RuntimeError):
        with pipelined.batch():
            pipelined.install_session("imsi1", "10.128.0.5", 0x100, 20.0)
            pipelined.set_enb_tunnel("imsiA", 0x299, "enb-b")
            pipelined.set_session_rate("imsiA", 1.0)
            pipelined.remove_session("imsiA")
            raise RuntimeError("abort mid-transaction")
    assert pipelined.switch.stats["bundles"] == 0
    assert [len(table) for table in pipelined.switch.tables] == rules_before
    assert not pipelined.in_batch()
    # Pipelined's own bookkeeping rolls back with the pending mods.
    assert pipelined.session_count() == 1
    assert not pipelined.has_session("imsi1")
    assert pipelined.has_session("imsiA")
    assert pipelined.stats == stats_before
    flows = pipelined.session("imsiA")
    assert (flows.enb_teid, flows.enb_node, flows.rate_mbps) == \
        (0x199, "enb-a", 20.0)
    # So no downlink rule can be programmed for a session without
    # classify rules.
    with pytest.raises(KeyError):
        pipelined.set_enb_tunnel("imsi1", 0x300, "enb-a")


def test_pipelined_nested_batch_joins_outer():
    context = make_context()
    pipelined = Pipelined(context)
    with pipelined.batch():
        pipelined.install_session("imsi1", "10.128.0.5", 0x100, 20.0)
        with pipelined.batch():
            pipelined.install_session("imsi2", "10.128.0.6", 0x101, 20.0)
        assert pipelined.in_batch()  # inner exit does not commit
    assert pipelined.switch.stats["bundles"] == 1
    assert pipelined.session_count() == 2


def test_pipelined_batched_handover_repoints_tunnel():
    context = make_context()
    pipelined = Pipelined(context)
    pipelined.install_session("imsi1", "10.128.0.5", 0x100, 20.0)
    pipelined.set_enb_tunnel("imsi1", 0x200, "enb-a")
    with pipelined.batch():
        pipelined.set_enb_tunnel("imsi1", 0x300, "enb-b")
    # Exactly one downlink rule survives, pointing at the new eNB.
    from repro.core.agw.pipelined import TABLE_EGRESS
    downlink = [r for r in pipelined.switch.tables[TABLE_EGRESS].rules()
                if (r.match.registers or {}).get("direction") == "downlink"]
    assert len(downlink) == 1
    assert downlink[0].actions[0].teid == 0x300


def test_pipelined_batch_counts_fewer_control_msgs():
    """The hot-path claim: batching collapses ~6 switch messages/session."""
    unbatched = Pipelined(make_context("agw-u"))
    for i in range(10):
        unbatched.install_session(f"imsi{i}", f"10.128.1.{i + 1}",
                                  0x100 + i, 10.0)
    batched = Pipelined(make_context("agw-b"))
    with batched.batch():
        for i in range(10):
            batched.install_session(f"imsi{i}", f"10.128.1.{i + 1}",
                                    0x100 + i, 10.0)
    assert batched.switch.stats["control_msgs"] * 2 <= \
        unbatched.switch.stats["control_msgs"]
    assert (batched.switch.stats["flow_ops"]
            == unbatched.switch.stats["flow_ops"])
