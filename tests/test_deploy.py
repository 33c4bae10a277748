"""The one testbed builder: what each shape stands up, and its errors."""

import pytest

from repro.core.agw import AgwConfig
from repro.deploy import build
from repro.lte import Enodeb


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
