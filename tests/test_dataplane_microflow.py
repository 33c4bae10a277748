"""Microflow cache behaviour: hits, correctness on the cached path, and
invalidation on every structural change (FlowMod add/delete, MeterMod
modify, bundle apply, table clear)."""

from repro.dataplane import (
    FlowBundle,
    FlowMatch,
    FlowMod,
    MeterMod,
    SoftwareSwitch,
    gtpu_encap,
    ip_packet,
)
from repro.dataplane import actions as act
from repro.dataplane import switch
from repro.dataplane.packet import GtpuHeader


def build_switch():
    sw = SoftwareSwitch("dp", num_tables=2)
    delivered = []
    sw.add_port("internet", delivered.append)
    sw.add_port("ran", lambda p: delivered.append(p))
    return sw, delivered


def forward_rule(table=0, priority=10, match=None, actions=None, cookie=None):
    return FlowMod(command=FlowMod.ADD, table_id=table, priority=priority,
                   match=match or FlowMatch(),
                   actions=actions or [act.Output("internet")], cookie=cookie)


def pkt():
    return ip_packet("10.0.0.1", "8.8.8.8", sport=4000, dport=80)


def test_second_packet_of_flow_hits_cache():
    sw, delivered = build_switch()
    rule = sw.apply(forward_rule())
    sw.inject(pkt(), "ran")
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_misses"] == 1
    assert sw.stats["mf_hits"] == 1
    assert len(delivered) == 2
    # Per-rule stats still count on the cached path.
    assert rule.stats.packets == 2
    assert sw.tables[0].lookups == 1  # classification ran exactly once


def test_distinct_flows_get_distinct_entries():
    sw, delivered = build_switch()
    sw.apply(forward_rule())
    sw.inject(pkt(), "ran")
    sw.inject(ip_packet("10.0.0.2", "8.8.8.8"), "ran")
    assert sw.stats["mf_misses"] == 2
    assert sw.stats["mf_hits"] == 0
    assert sw.datapath_stats()["microflow"]["size"] == 2


def test_flowmod_add_invalidates_and_new_rule_wins():
    sw, delivered = build_switch()
    sw.apply(forward_rule(priority=10))
    sw.inject(pkt(), "ran")
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_hits"] == 1
    invalidations = sw.stats["mf_invalidations"]
    sw.apply(forward_rule(priority=100, actions=[act.Drop()]))
    assert sw.stats["mf_invalidations"] > invalidations
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_hits"] == 1       # stale entry was not reused
    assert sw.stats["mf_misses"] == 2
    assert sw.stats["dropped"] == 1       # the new higher-priority rule won
    assert len(delivered) == 2


def test_flowmod_delete_invalidates():
    sw, delivered = build_switch()
    match = FlowMatch(ip_dst="8.8.8.8")
    sw.apply(forward_rule(match=match))
    sw.inject(pkt(), "ran")
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_hits"] == 1
    sw.apply(FlowMod(command=FlowMod.DELETE, table_id=0, priority=10,
                     match=match))
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_hits"] == 1       # no hit on the deleted rule's chain
    assert len(delivered) == 2            # table miss now: a counted drop


def test_delete_by_cookie_invalidates():
    sw, delivered = build_switch()
    sw.apply(forward_rule(cookie="ue-1"))
    sw.inject(pkt(), "ran")
    sw.apply(FlowMod(command=FlowMod.DELETE_BY_COOKIE, table_id=0,
                     cookie="ue-1"))
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_hits"] == 0
    assert len(delivered) == 1


def test_metermod_modify_invalidates():
    sw, delivered = build_switch()
    sw.apply(MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=100.0))
    sw.apply(forward_rule(actions=[act.Meter(1), act.Output("internet")]))
    sw.inject(pkt(), "ran")
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_hits"] == 1
    invalidations = sw.stats["mf_invalidations"]
    sw.apply(MeterMod(command=MeterMod.MODIFY, meter_id=1, rate_mbps=1.0))
    assert sw.stats["mf_invalidations"] > invalidations
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_misses"] == 2     # re-classified after the modify


def test_bundle_apply_invalidates():
    sw, delivered = build_switch()
    sw.apply(forward_rule())
    sw.inject(pkt(), "ran")
    invalidations = sw.stats["mf_invalidations"]
    sw.apply(FlowBundle(mods=(
        forward_rule(table=1, priority=5, actions=[act.Drop()]),
    )))
    assert sw.stats["mf_invalidations"] > invalidations
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_hits"] == 0
    assert sw.stats["mf_misses"] == 2


def test_table_clear_invalidates():
    sw, delivered = build_switch()
    sw.apply(forward_rule())
    sw.inject(pkt(), "ran")
    sw.tables[0].clear()                  # direct table mutation
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_hits"] == 0
    assert len(delivered) == 1            # second packet hit the empty table


def test_meters_enforce_on_cached_path():
    sw, delivered = build_switch()
    # ~3 packets of burst at 1000 bytes each; clock frozen at 0.
    sw.apply(MeterMod(command=MeterMod.ADD, meter_id=1, rate_mbps=0.008,
                      burst_bytes=3_000))
    sw.apply(forward_rule(actions=[act.Meter(1), act.Output("internet")]))
    for _ in range(10):
        sw.inject(ip_packet("10.0.0.1", "8.8.8.8", payload_bytes=920), "ran")
    assert len(delivered) == 3
    assert sw.stats["meter_dropped"] == 7
    assert sw.stats["mf_hits"] >= 2       # enforcement happened on hits


def test_cached_path_applies_header_rewrites():
    sw, delivered = build_switch()
    sw.apply(forward_rule(
        match=FlowMatch(in_port="internet"),
        actions=[act.SetDscp(46),
                 act.PushGtpu(teid=7, tunnel_src="agw", tunnel_dst="enb"),
                 act.Output("ran")]))
    for _ in range(2):
        sw.inject(ip_packet("8.8.8.8", "10.0.0.1"), "internet")
    assert sw.stats["mf_hits"] == 1
    for out in delivered:
        assert out.find(GtpuHeader).teid == 7
        assert out.inner_ip().dscp == 46


def test_decap_flows_cache_by_teid():
    sw, delivered = build_switch()
    sw.apply(forward_rule(match=FlowMatch(in_port="ran", tun_id=5),
                          actions=[act.PopGtpu(), act.Output("internet")]))
    for _ in range(2):
        uplink = gtpu_encap(ip_packet("10.0.0.1", "8.8.8.8"), 5, "enb", "agw")
        sw.inject(uplink, "ran")
    assert sw.stats["mf_hits"] == 1
    assert all(out.find(GtpuHeader) is None for out in delivered)


def test_table_miss_and_punt_not_cached():
    sw, _ = build_switch()
    sw.inject(pkt(), "ran")
    sw.inject(pkt(), "ran")
    assert sw.stats["to_controller"] == 2  # both walks missed and punted
    assert sw.stats["mf_hits"] == 0
    assert sw.datapath_stats()["microflow"]["size"] == 0


def test_unhashable_metadata_bypasses_cache():
    sw, delivered = build_switch()
    sw.apply(forward_rule())
    packet = pkt()
    packet.metadata["trace"] = [1, 2]     # unhashable
    sw.inject(packet, "ran")
    assert sw.stats["mf_uncacheable"] == 1
    assert len(delivered) == 1


def test_eviction_respects_capacity(monkeypatch):
    monkeypatch.setattr(switch, "MICROFLOW_CAPACITY", 2)
    sw, delivered = build_switch()
    sw.apply(forward_rule())
    for i in range(4):
        sw.inject(ip_packet(f"10.0.0.{i}", "8.8.8.8"), "ran")
    mf = sw.datapath_stats()["microflow"]
    assert mf["size"] <= 2
    assert mf["evictions"] == 2
    assert len(delivered) == 4


def test_cache_disabled_never_hits():
    sw, delivered = build_switch()
    sw.microflow_enabled = False
    sw.apply(forward_rule())
    sw.inject(pkt(), "ran")
    sw.inject(pkt(), "ran")
    assert sw.stats["mf_hits"] == 0
    assert sw.stats["mf_misses"] == 0
    assert sw.tables[0].lookups == 2
    assert len(delivered) == 2


def test_pipelined_exposes_datapath_stats_and_gauges():
    from repro.core.agw import AgwContext, Pipelined
    from repro.net import Network
    from repro.sim import Simulator

    sim = Simulator()
    context = AgwContext(sim, Network(sim), "agw-1")
    pipelined = Pipelined(context)
    pipelined.install_session("IMSI001", "10.128.0.1", 0x10, 20.0)
    pipelined.set_enb_tunnel("IMSI001", 0x20, "enb-1")

    dp = pipelined.datapath_stats()
    assert sum(t["rules"] for t in dp["tables"]) == 5
    assert sum(t["subtables"] for t in dp["tables"]) >= 3

    gauges = pipelined.datapath_metrics()
    assert gauges["dp_rules"] == 5.0
    assert gauges["dp_subtables"] >= 3
    assert "dp_microflow_size" in gauges
    assert "dp_microflow_invalidations" in gauges
    assert gauges["dp_fleet_offered_mbps"] == 0.0
    assert all(type(value) is float for value in gauges.values())
