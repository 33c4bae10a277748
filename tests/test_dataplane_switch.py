"""Unit tests for the software switch pipeline (tables, actions, fluid mode)."""

import pytest

from repro.dataplane import (
    FlowMatch,
    FlowMod,
    MeterMod,
    PipelineError,
    SoftwareSwitch,
    StatsRequest,
    BarrierRequest,
    ip_packet,
)
from repro.dataplane import actions as act
from repro.dataplane.packet import GtpuHeader


def build_switch(num_tables=4):
    sw = SoftwareSwitch("agw-dp", num_tables=num_tables)
    delivered = {"uplink": [], "downlink": []}
    sw.add_port("internet", delivered["uplink"].append)
    sw.add_port("ran", delivered["downlink"].append)
    return sw, delivered


def add_rule(sw, table=0, priority=10, match=None, actions=(), cookie=None):
    return sw.apply(FlowMod(command=FlowMod.ADD, table_id=table,
                            priority=priority, match=match or FlowMatch(),
                            actions=actions, cookie=cookie))


def test_output_action_delivers():
    sw, delivered = build_switch()
    add_rule(sw, actions=[act.Output("internet")])
    pkt = ip_packet("10.0.0.1", "8.8.8.8")
    sw.inject(pkt, "ran")
    assert delivered["uplink"] == [pkt]
    assert sw.stats["tx"] == 1


def test_drop_action():
    sw, delivered = build_switch()
    add_rule(sw, actions=[act.Drop()])
    sw.inject(ip_packet("a", "b"), "ran")
    assert delivered["uplink"] == []
    assert sw.stats["dropped"] == 1


def test_priority_order_wins():
    sw, delivered = build_switch()
    add_rule(sw, priority=1, actions=[act.Drop()])
    add_rule(sw, priority=100, match=FlowMatch(ip_src="10.0.0.1"),
             actions=[act.Output("internet")])
    sw.inject(ip_packet("10.0.0.1", "x"), "ran")
    sw.inject(ip_packet("10.0.0.2", "x"), "ran")
    assert len(delivered["uplink"]) == 1
    assert sw.stats["dropped"] == 1


def test_table_miss_punts_to_controller():
    sw, _ = build_switch()
    add_rule(sw, match=FlowMatch(ip_dst="hit"), actions=[act.Drop()])
    sw.inject(ip_packet("a", "b"), "ran")
    sw.inject(ip_packet("a", "c"), "ran")
    sw.inject(ip_packet("a", "hit"), "ran")
    assert sw.stats["to_controller"] == 2   # the two misses, not the Drop
    assert sw.stats["dropped"] == 3         # no controller is attached


def test_table_miss_without_controller_drops():
    sw, _ = build_switch()
    sw.inject(ip_packet("a", "b"), "ran")
    assert sw.stats["dropped"] == 1


def test_goto_table_chains():
    sw, delivered = build_switch()
    add_rule(sw, table=0, actions=[act.SetRegister("direction", "up"),
                                   act.GotoTable(1)])
    add_rule(sw, table=1, match=FlowMatch(registers={"direction": "up"}),
             actions=[act.Output("internet")])
    sw.inject(ip_packet("a", "b"), "ran")
    assert len(delivered["uplink"]) == 1


def test_pipeline_loop_detected():
    sw, _ = build_switch()
    add_rule(sw, table=0, actions=[act.GotoTable(1)])
    add_rule(sw, table=1, actions=[act.GotoTable(0)])
    with pytest.raises(PipelineError, match="loop"):
        sw.inject(ip_packet("a", "b"), "ran")


def test_gtpu_push_and_pop_actions():
    sw, delivered = build_switch()
    add_rule(sw, match=FlowMatch(in_port="ran"),
             actions=[act.PopGtpu(), act.Output("internet")])
    add_rule(sw, match=FlowMatch(in_port="internet"),
             actions=[act.PushGtpu(teid=5, tunnel_src="agw", tunnel_dst="enb"),
                      act.Output("ran")])
    from repro.dataplane import gtpu_encap
    uplink = gtpu_encap(ip_packet("10.0.0.1", "8.8.8.8"), 5, "enb", "agw")
    sw.inject(uplink, "ran")
    assert delivered["uplink"][0].find(GtpuHeader) is None

    downlink = ip_packet("8.8.8.8", "10.0.0.1")
    sw.inject(downlink, "internet")
    assert delivered["downlink"][0].find(GtpuHeader).teid == 5


def test_meter_action_enforces_rate():
    sw, delivered = build_switch()
    sw.apply(MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=0.008,
                      burst_bytes=3_000))
    add_rule(sw, actions=[act.Meter(1), act.Output("internet")])
    for _ in range(10):
        sw.inject(ip_packet("a", "b", payload_bytes=920), "ran")  # 1000B each
    assert len(delivered["uplink"]) == 3
    assert sw.stats["meter_dropped"] == 7


def test_missing_meter_raises():
    sw, _ = build_switch()
    add_rule(sw, actions=[act.Meter(99), act.Output("internet")])
    with pytest.raises(PipelineError, match="missing meter"):
        sw.inject(ip_packet("a", "b"), "ran")


def test_meter_modify_and_delete():
    sw, _ = build_switch()
    sw.apply(MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=10))
    sw.apply(MeterMod(command=MeterMod.MODIFY, meter_id=1, rate_mbps=1))
    assert sw.meters[1].rate_mbps == 1
    assert sw.apply(MeterMod(command=MeterMod.DELETE, meter_id=1)) is True
    assert sw.apply(MeterMod(command=MeterMod.DELETE, meter_id=1)) is False
    with pytest.raises(PipelineError):
        sw.apply(MeterMod(command=MeterMod.MODIFY, meter_id=1, rate_mbps=2))


def test_duplicate_meter_add_raises():
    sw, _ = build_switch()
    sw.apply(MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=10))
    with pytest.raises(PipelineError):
        sw.apply(MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=10))


def test_set_dscp_action():
    sw, delivered = build_switch()
    add_rule(sw, actions=[act.SetDscp(46), act.Output("internet")])
    pkt = ip_packet("a", "b")
    sw.inject(pkt, "ran")
    assert delivered["uplink"][0].inner_ip().dscp == 46


def test_stats_collection_and_cookie_filter():
    sw, _ = build_switch()
    add_rule(sw, actions=[act.Output("internet")], cookie="ue-1")
    add_rule(sw, priority=5, match=FlowMatch(ip_src="10.0.0.2"),
             actions=[act.Drop()], cookie="ue-2")
    sw.inject(ip_packet("10.0.0.1", "b", payload_bytes=100), "ran")
    reply = sw.apply(StatsRequest(cookie="ue-1"))
    assert len(reply.entries) == 1
    assert reply.entries[0].packets == 1
    assert reply.entries[0].bytes > 100
    all_reply = sw.apply(StatsRequest())
    assert len(all_reply.entries) == 2


def test_delete_by_cookie():
    sw, _ = build_switch()
    add_rule(sw, actions=[act.Output("internet")], cookie="ue-1")
    add_rule(sw, table=1, actions=[act.Drop()], cookie="ue-1")
    removed = sw.apply(FlowMod(command=FlowMod.DELETE_BY_COOKIE, table_id=0,
                               cookie="ue-1"))
    assert removed == 1
    assert len(sw.tables[0]) == 0
    assert len(sw.tables[1]) == 1


def test_barrier_returns_true():
    sw, _ = build_switch()
    assert sw.apply(BarrierRequest()) is True


def test_unknown_message_rejected():
    sw, _ = build_switch()
    with pytest.raises(PipelineError):
        sw.apply(object())


def test_unknown_table_rejected():
    sw, _ = build_switch(num_tables=2)
    with pytest.raises(PipelineError):
        add_rule(sw, table=5, actions=[act.Drop()])


def test_fluid_evaluation_plain_forward():
    sw, _ = build_switch()
    add_rule(sw, actions=[act.Output("internet")], cookie="ue-1")
    rep = ip_packet("10.0.0.1", "8.8.8.8")
    admitted, cookies = sw.evaluate_fluid(rep, "ran", offered_mbps=100.0)
    assert admitted == 100.0
    assert cookies == ["ue-1"]


def test_fluid_evaluation_applies_meter():
    sw, _ = build_switch()
    sw.apply(MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=1.5))
    add_rule(sw, actions=[act.Meter(1), act.Output("internet")], cookie="ue-1")
    admitted, _ = sw.evaluate_fluid(ip_packet("a", "b"), "ran", 10.0)
    assert admitted == 1.5


def test_fluid_evaluation_miss_admits_zero():
    sw, _ = build_switch()
    admitted, cookies = sw.evaluate_fluid(ip_packet("a", "b"), "ran", 10.0)
    assert admitted == 0.0
    assert cookies == []


def test_fluid_evaluation_multi_table_with_meters():
    sw, _ = build_switch()
    sw.apply(MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=5.0))
    sw.apply(MeterMod(command=MeterMod.ADD, meter_id=2, rate_mbps=2.0))
    add_rule(sw, table=0, actions=[act.Meter(1), act.GotoTable(1)], cookie="agg")
    add_rule(sw, table=1, actions=[act.Meter(2), act.Output("internet")],
             cookie="ue-1")
    admitted, cookies = sw.evaluate_fluid(ip_packet("a", "b"), "ran", 10.0)
    assert admitted == 2.0
    assert cookies == ["agg", "ue-1"]


def test_record_fluid_usage_updates_stats():
    sw, _ = build_switch()
    add_rule(sw, actions=[act.Output("internet")], cookie="ue-1")
    sw.record_fluid_usage("ue-1", mbps=8.0, duration=10.0)
    reply = sw.apply(StatsRequest(cookie="ue-1"))
    assert reply.entries[0].bytes == int(8.0 * 1e6 / 8 * 10)


def test_duplicate_port_rejected():
    sw, _ = build_switch()
    with pytest.raises(ValueError):
        sw.add_port("internet", lambda p: None)


def test_output_to_removed_port_drops():
    sw, delivered = build_switch()
    add_rule(sw, actions=[act.Output("internet")])
    sw.remove_port("internet")
    sw.inject(ip_packet("a", "b"), "ran")
    assert sw.stats["dropped"] == 1


# -- bundles (atomic batched programming) -----------------------------------------


def test_bundle_applies_all_mods_and_counts_one_control_msg():
    from repro.dataplane import BundleReply, FlowBundle
    sw, delivered = build_switch()
    before = sw.stats["control_msgs"]
    reply = sw.apply(FlowBundle(mods=(
        MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=10.0),
        FlowMod(command=FlowMod.ADD, table_id=0, priority=10,
                match=FlowMatch(), actions=[act.Output("internet")],
                cookie="ue-1"),
        FlowMod(command=FlowMod.ADD, table_id=1, priority=10,
                match=FlowMatch(), actions=[act.Drop()], cookie="ue-1"),
    )))
    assert isinstance(reply, BundleReply)
    assert reply.mods_applied == 3
    assert reply.rules_added == 2
    assert sw.stats["control_msgs"] == before + 1
    assert sw.stats["bundles"] == 1
    assert 1 in sw.meters
    assert len(sw.tables[0]) == 1 and len(sw.tables[1]) == 1


def test_bundle_is_atomic_on_validation_failure():
    from repro.dataplane import FlowBundle
    sw, delivered = build_switch()
    with pytest.raises(PipelineError):
        sw.apply(FlowBundle(mods=(
            FlowMod(command=FlowMod.ADD, table_id=0, priority=10,
                    match=FlowMatch(), actions=[act.Drop()], cookie="x"),
            MeterMod(command=MeterMod.MODIFY, meter_id=99, rate_mbps=1.0),
        )))
    # The valid leading FlowMod must NOT have been applied.
    assert len(sw.tables[0]) == 0
    assert sw.stats["bundles"] == 0


def test_bundle_validates_meter_ids_against_earlier_mods():
    from repro.dataplane import FlowBundle
    sw, delivered = build_switch()
    # ADD then MODIFY of the same meter inside one bundle is legal.
    sw.apply(FlowBundle(mods=(
        MeterMod(command=MeterMod.ADD, meter_id=5, rate_mbps=1.0),
        MeterMod(command=MeterMod.MODIFY, meter_id=5, rate_mbps=2.0),
    )))
    assert sw.meters[5].rate_mbps == 2.0
    # A duplicate ADD (even of a meter added earlier in the bundle) is not.
    with pytest.raises(PipelineError):
        sw.apply(FlowBundle(mods=(
            MeterMod(command=MeterMod.ADD, meter_id=6, rate_mbps=1.0),
            MeterMod(command=MeterMod.ADD, meter_id=6, rate_mbps=2.0),
        )))
    assert 6 not in sw.meters


def test_bundle_preserves_add_delete_ordering():
    from repro.dataplane import FlowBundle
    sw, delivered = build_switch()
    match = FlowMatch(registers={"imsi": "ue-1", "direction": "downlink"})
    # ADD, DELETE (matching it), then a fresh ADD: only the last survives.
    sw.apply(FlowBundle(mods=(
        FlowMod(command=FlowMod.ADD, table_id=0, priority=10, match=match,
                actions=[act.Drop()], cookie="old"),
        FlowMod(command=FlowMod.DELETE, table_id=0, priority=10, match=match),
        FlowMod(command=FlowMod.ADD, table_id=0, priority=10, match=match,
                actions=[act.Output("internet")], cookie="new"),
    )))
    rules = sw.tables[0].rules()
    assert [r.cookie for r in rules] == ["new"]


def test_bundle_rejects_foreign_messages():
    from repro.dataplane import FlowBundle
    sw, delivered = build_switch()
    with pytest.raises(PipelineError):
        sw.apply(FlowBundle(mods=(StatsRequest(),)))


def test_bundle_rejected_by_a_late_meter_changes_nothing():
    # Every check apply would make runs before the first mod: a bad meter
    # rate at the end leaves the earlier meter, rule and delete unapplied.
    from repro.dataplane import FlowBundle
    sw, delivered = build_switch()
    add_rule(sw, actions=[act.Drop()], cookie="old")
    before = (dict(sw.stats), sw.datapath_stats(), sorted(sw.meters))
    with pytest.raises(PipelineError):
        sw.apply(FlowBundle(mods=(
            MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=5.0),
            FlowMod(command=FlowMod.ADD, table_id=0, priority=10,
                    match=FlowMatch(ip_dst="10.0.0.9"),
                    actions=[act.Output("internet")], cookie="new"),
            FlowMod(command=FlowMod.DELETE_BY_COOKIE, table_id=0,
                    cookie="old"),
            MeterMod(command=MeterMod.ADD, meter_id=2, rate_mbps=0.0),
        )))
    assert [r.cookie for r in sw.tables[0].rules()] == ["old"]
    stats = dict(sw.stats, control_msgs=before[0]["control_msgs"])
    assert (stats, sw.datapath_stats(), sorted(sw.meters)) == before


@pytest.mark.parametrize("mod", [
    FlowMod(command=FlowMod.ADD, table_id=0, priority=-1),
    FlowMod(command=FlowMod.ADD, table_id=9, priority=1),
    FlowMod(command="replace", table_id=0),
    MeterMod(command=MeterMod.ADD, meter_id=3, rate_mbps=0.0),
    MeterMod(command=MeterMod.ADD, meter_id=3, rate_mbps=1.0, burst_bytes=0),
    MeterMod(command=MeterMod.MODIFY, meter_id=1, rate_mbps=-2.0),
    MeterMod(command=MeterMod.MODIFY, meter_id=4, rate_mbps=1.0),
    MeterMod(command="reset", meter_id=1),
], ids=repr)
def test_a_mod_is_rejected_alike_alone_and_in_a_bundle(mod):
    from repro.dataplane import FlowBundle
    for wrap in (lambda m: m, lambda m: FlowBundle(mods=(m,))):
        sw, delivered = build_switch()
        sw.apply(MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=10.0))
        before = (sw.datapath_stats(), sw.meters[1].rate_mbps)
        with pytest.raises(PipelineError):
            sw.apply(wrap(mod))
        assert (sw.datapath_stats(), sw.meters[1].rate_mbps) == before
        assert sw.stats["bundles"] == 0
