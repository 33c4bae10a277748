"""Every metric a gateway ships at check-in is that gateway's own.

``invariants.shipped_metric_violations`` compares one bundle with the
values the gateway's own services hold at the instant it was built.  It
runs here over every backlog entry of a sharded fleet of real AGWs, whose
bundles must also all have one key set: metricsd keeps a gateway's
samples in one block only while the key set stays fixed.  A single AGW's
fleet load, started and then stopped, shows the shipped
``dp_fleet_offered_mbps`` following it back to 0.0.
"""

from invariants import shipped_metric_violations
from repro.core.agw import AccessGateway
from repro.deploy import build


def test_every_bundle_of_a_fleet_is_its_gateways_own(monkeypatch):
    from repro.obs.scenario import run_health_fleet

    built = AccessGateway.metrics_summary
    entries = []

    def checked(agw):
        shipped = built(agw)
        entries.append((agw.node, tuple(shipped),
                        shipped_metric_violations(agw, shipped)))
        return shipped

    monkeypatch.setattr(AccessGateway, "metrics_summary", checked)
    run = run_health_fleet(num_agws=4, num_shards=2)
    assert len(entries) == sum(agw.magmad.stats["metrics_buffered"]
                               for agw in run.site.agws) > 4 * 20
    assert [violations for _, _, violations in entries
            if violations] == []
    assert len({keys for _, keys, _ in entries}) == 1
    assert all(agw.mme.stats["attach_accepted"] == 2 for agw in run.site.agws)


def test_the_shipped_fleet_load_follows_the_gateways_own():
    site = build()
    sim, agw = site.sim, site.agw
    shipped = []
    for load in (5.0, 0.0):
        agw.pipelined.set_fleet_load(load)
        sim.run(until=sim.now + 1.0)
        shipped.append(agw.metrics_summary())
        assert shipped_metric_violations(agw, shipped[-1]) == []
    assert [bundle["dp_fleet_offered_mbps"] for bundle in shipped] \
        == [5.0, 0.0]
    assert shipped[0].keys() == shipped[1].keys()


def test_two_bundles_at_one_instant_have_one_key_set():
    site = build()
    site.sim.run(until=1.0)
    first, second = site.agw.metrics_summary(), site.agw.metrics_summary()
    assert first.keys() == second.keys()
    assert second["cpu_util"] == first["cpu_util"]
    assert shipped_metric_violations(site.agw, second) == []


def test_the_invariant_catches_foreign_stale_and_missing_metrics():
    site = build()
    site.sim.run(until=1.0)
    agw = site.agw
    own = agw.metrics_summary()
    assert shipped_metric_violations(agw, own) == []
    shipped = dict(own, attach_accepted=8.0, cpu_util=1.5)
    shipped["checkin.tx_bytes"] = 35834.0
    del shipped["dp_fleet_offered_mbps"]
    assert sorted(shipped_metric_violations(agw, shipped)) == [
        "agw-1 does not ship its own dp_fleet_offered_mbps",
        "agw-1 ships attach_accepted=8.0, its own is 0",
        "agw-1 ships checkin.tx_bytes=35834.0, which none of its "
        "services owns",
        "agw-1 ships cpu_util=1.5",
    ]
