"""The one testbed builder: what each shape stands up, and its errors."""

import pytest

from repro.core.agw import AgwConfig
from repro.deploy import build
from repro.lte import Enodeb, make_imsi
from repro.net import Network


def test_a_cell_site_provisions_the_agw_directly():
    d = build(num_enbs=2, num_ues=3, rats=("5g", "wifi"))
    assert d.orc is None and d.agw.node == "agw-1"
    assert [ran.node_id for ran in (*d.enbs, *d.gnbs)] == \
        ["enb-1", "enb-2", "gnb-1"]
    assert [ap.ap_id for ap in d.aps] == ["ap-1"]
    assert [ue.enb for ue in d.ues] == [d.enbs[0], d.enbs[1], d.enbs[0]]
    assert all(d.agw.subscriberdb.get(imsi).wifi_secret == f"wifi-{imsi}"
               for imsi in d.imsis)


def test_an_orchestrated_site_provisions_northbound_and_syncs():
    d = build(num_ues=2, backhaul="fiber",
              config=AgwConfig(checkin_interval=5.0))
    assert len(d.agw.subscriberdb) == 0          # nothing synced yet
    d.sim.run(until=6.0)                         # the first check-in
    assert d.agw.subscriberdb.get(d.imsis[1]).wifi_secret is None
    assert d.run_attach(d.ues[1]).success


def test_a_gnb_only_site_gets_5g_ues():
    d = build(num_enbs=0, num_ues=2, rats=("5g",))
    assert [ue.gnb for ue in d.ues] == d.gnbs * 2


def test_a_ran_node_that_never_comes_up_is_an_error(monkeypatch):
    monkeypatch.setattr(Enodeb, "s1_setup", lambda self: None)
    with pytest.raises(RuntimeError, match="RAN setup failed for enb-1"):
        build()


# -- the fleet shape ---------------------------------------------------------------


def connections(monkeypatch):
    """Record ``(a, b, link name)`` for every link the builder connects."""
    made = []
    connect = Network.connect

    def recording(self, a, b, link=None):
        made.append((a, b, link.name))
        return connect(self, a, b, link)

    monkeypatch.setattr(Network, "connect", recording)
    return made


def test_one_agw_keeps_the_single_site_names(monkeypatch):
    made = connections(monkeypatch)
    d = build(backhaul="fiber")
    assert [agw.node for agw in d.agws] == ["agw-1"] and d.agw is d.agws[0]
    assert made == [("agw-1", "orc", "fiber"),
                    ("enb-1", "agw-1", "lan-enb-1")]


def test_fleet_names_are_unique_and_number_on(monkeypatch):
    made = connections(monkeypatch)
    d = build(num_enbs=2, num_ues=2, num_agws=3, rats=("5g", "wifi"))
    assert [agw.node for agw in d.agws] == ["agw-1", "agw-2", "agw-3"]
    assert [enb.node_id for enb in d.enbs] == [f"enb-{n}" for n in range(1, 7)]
    assert [gnb.node_id for gnb in d.gnbs] == ["gnb-1", "gnb-2", "gnb-3"]
    assert [ap.ap_id for ap in d.aps] == ["ap-1", "ap-2", "ap-3"]
    assert d.imsis == [make_imsi(n) for n in range(1, 7)]
    nodes = [a for a, _, _ in made]
    links = [name for _, _, name in made]
    assert len(set(nodes)) == len(nodes) == 12
    assert len(set(links)) == len(links)
    # Each RAN node hangs off its own AGW.
    assert [(a, b) for a, b, _ in made] == [
        (ran, f"agw-{agw}") for agw in (1, 2, 3)
        for ran in (f"enb-{2 * agw - 1}", f"enb-{2 * agw}", f"gnb-{agw}",
                    f"ap-{agw}")]


def test_each_agws_ues_camp_on_its_own_enodebs():
    d = build(num_enbs=2, num_ues=3, num_agws=2)
    assert [ue.enb for ue in d.ues] == [d.enbs[0], d.enbs[1], d.enbs[0],
                                        d.enbs[2], d.enbs[3], d.enbs[2]]
    assert [enb.core_node for enb in d.enbs] == \
        ["agw-1", "agw-1", "agw-2", "agw-2"]
    assert d.run_attach(d.ues[4]).success
    assert d.agws[1].sessiond.session(d.imsis[4]) is not None
    assert d.agws[0].sessiond.session_count() == 0


def test_without_a_backhaul_each_agw_holds_only_its_own_subscribers():
    d = build(num_ues=2, num_agws=3)
    assert [sorted(agw.subscriberdb.all_imsis())
            for agw in d.agws] == [d.imsis[0:2], d.imsis[2:4], d.imsis[4:6]]


def test_sharded_check_ins_land_on_the_owner_shard_only():
    d = build(num_ues=1, num_agws=4, num_shards=2, backhaul="fiber",
              config=AgwConfig(checkin_interval=5.0))
    d.run_until_synced()
    d.sim.run(until=d.sim.now + 12.0)
    orc = d.orc
    owners = {agw.node: orc.shard_for(agw.node) for agw in d.agws}
    assert len(set(owners.values())) == 2
    assert orc.server.stats["requests"] == 0      # nothing at the front door
    for shard in orc.shards:
        assert sorted(state.gateway_id for state in shard.statesync.gateways()) \
            == sorted(node for node, owner in owners.items()
                      if owner is shard)
    assert all(agw.magmad.stats["checkins_ok"] >= 3 for agw in d.agws)


def test_with_one_shard_downing_the_front_door_makes_the_agw_headless():
    d = build(num_ues=1, backhaul="fiber",
              config=AgwConfig(checkin_interval=5.0))
    assert d.agw.magmad.orchestrator_node == "orc"
    d.run_until_synced()
    d.network.set_node_up("orc", False)
    d.sim.run(until=d.sim.now + 12.0)
    assert d.agw.magmad.stats["checkins_failed"] >= 1
    assert d.run_attach(d.ues[0]).success         # served from its cache


def test_run_until_synced_waits_for_every_agw():
    d = build(num_ues=1, num_agws=2, backhaul="fiber",
              config=AgwConfig(checkin_interval=5.0))
    d.network.set_node_up("agw-2", False)
    d.sim.run(until=7.0)
    d.network.set_node_up("agw-2", True)
    version = d.orc.store.version
    assert [agw.magmad.config_version for agw in d.agws] == [version, 0]
    d.run_until_synced()
    assert [agw.magmad.config_version for agw in d.agws] == [version] * 2


def test_shards_need_a_backhaul():
    with pytest.raises(ValueError, match="num_shards needs a backhaul"):
        build(num_agws=2, num_shards=2)


def test_an_unknown_rat_is_refused_with_the_allowed_names():
    with pytest.raises(ValueError, match="'5G', 'WiFi'.*'5g', 'wifi'"):
        build(1, 2, rats=("5G", "WiFi"))


def test_a_deployment_needs_an_agw():
    with pytest.raises(ValueError, match="num_agws must be at least 1"):
        build(1, 1, num_agws=0)
