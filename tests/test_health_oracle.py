"""Per-shard health scoring reports exactly what the merged-view engine did.

``reference_health`` holds the retired ``HealthEngine``, which read every
gateway through the orchestrator's merged views (each per-gateway query
sent to all N shards).  The product scores each gateway on its owner
shard.  Under the ownership precondition (``invariants``) the two must
agree byte for byte: ``repr`` of every ``report()`` and ``agw_health()``,
so key order and floats are compared, not just values.

Three settings: random per-gateway ingest streams on 1-8 shards, each
landing on its owner shard through the real check-in path (out-of-order
capture times, back-fill past the window, equal times and values,
exemplar trace ids, publishes the gateways lag behind); the 8-shard
sans-io check-in storm; and the health fleet of real AGWs through an AGW
crash and recovery and a shard backhaul outage.  The ownership check
itself is shown to catch a registration and a series off their owner.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from invariants import shard_ownership_violations
from reference_health import ReferenceHealthEngine
from repro.core.orchestrator import Orchestrator
from repro.net import Network
from repro.obs.health import ATTACH_LATENCY_METRIC
from repro.sim import RngRegistry, Simulator

NETWORK_ID = "default"


def orchestrator(num_shards):
    sim = Simulator()
    return Orchestrator(sim, Network(sim, RngRegistry(1)), "orc",
                        num_shards=num_shards)


def assert_same_health(orc, gateway_ids=()):
    """The product and the reference engine agree on every read."""
    assert shard_ownership_violations(orc) == []
    reference = ReferenceHealthEngine(orc)
    assert repr(orc.health_report()) == repr(reference.report())
    for gateway_id in (*gateway_ids, "never-checked-in"):
        assert repr(orc.health.agw_health(gateway_id)) \
            == repr(reference.agw_health(gateway_id))


def checkin(orc, gateway_id, seq, version, time, metrics, latency=()):
    """One check-in on the owner shard with one back-fill entry."""
    orc.shard_for(gateway_id).statesync.handle_checkin({
        "gateway_id": gateway_id, "network_id": NETWORK_ID,
        "config_version": version,
        "metrics_backlog": [{
            "seq": seq, "time": time, "metrics": metrics,
            "latency": {ATTACH_LATENCY_METRIC: [list(row)
                                                for row in latency]}}],
    })


# -- random ingest streams ---------------------------------------------------------

#: Few distinct values, so equal capture times and equal latencies (the
#: sort's and the exemplar's tie cases) are common.
latency_row = st.tuples(st.integers(0, 6), st.sampled_from([0.2, 0.5, 2.0]),
                        st.one_of(st.none(), st.integers(1, 9)))
event = st.one_of(
    st.tuples(st.just("checkin"), st.integers(0, 5),   # gateway
              st.integers(0, 20),                      # clock step
              st.integers(0, 150),                     # capture lag
              st.integers(0, 3),                       # versions behind
              st.tuples(st.integers(0, 4), st.integers(0, 4),
                        st.sampled_from([0.1, 0.5, 0.95])),
              st.lists(latency_row, max_size=4)),
    st.tuples(st.just("publish"), st.integers(0, 20)))


@settings(max_examples=60, deadline=None)
@given(num_shards=st.integers(1, 8),
       events=st.lists(event, min_size=1, max_size=40))
def test_random_streams_match_the_merged_view_engine(num_shards, events):
    orc = orchestrator(num_shards)
    sim = orc.sim
    gateway_ids = [f"gw-{i}" for i in range(6)]
    seqs = dict.fromkeys(gateway_ids, 0)
    counters = {gateway_id: [0, 0] for gateway_id in gateway_ids}
    version = 0
    for n, ev in enumerate(events):
        if ev[0] == "publish":
            sim.now += ev[1]
            version += 1
            orc.convergence.note_publish(NETWORK_ID, version)
        else:
            _, index, step, lag, behind, (req, acc, cpu), rows = ev
            gateway_id = gateway_ids[index]
            sim.now += step
            seqs[gateway_id] += 1
            counters[gateway_id][0] += req
            counters[gateway_id][1] += min(acc, req)
            capture = sim.now - lag
            checkin(orc, gateway_id, seqs[gateway_id],
                    max(0, version - behind), capture,
                    {"attach_requests": float(counters[gateway_id][0]),
                     "attach_accepted": float(counters[gateway_id][1]),
                     "cpu_util": cpu},
                    [(capture - dt, value, trace_id)
                     for dt, value, trace_id in rows])
        if n % 8 == 7:
            assert_same_health(orc, gateway_ids)
    assert_same_health(orc, gateway_ids)


def test_exemplar_ties_go_to_the_earliest_sample():
    """Both exemplar branches on equal values: the closest linked sample
    at or above p99, and the fallback to the largest linked one when
    every sample that high is unlinked."""
    orc = orchestrator(2)
    orc.sim.now = 10.0
    checkin(orc, "gw-above", 1, 0, 9.0, {},
            [(1.0, 0.5, 1), (2.0, 2.0, 2), (3.0, 2.0, 3)])
    checkin(orc, "gw-below", 1, 0, 9.0, {},
            [(1.0, 0.5, 4), (2.0, 0.5, 5), (3.0, 2.0, None)])
    assert_same_health(orc, ["gw-above", "gw-below"])
    trace_ids = {gateway_id: orc.health.agw_health(gateway_id)["detail"]
                 ["attach_p99_exemplar"]["trace_id"]
                 for gateway_id in ("gw-above", "gw-below")}
    assert trace_ids == {"gw-above": 2, "gw-below": 4}


# -- the sans-io check-in storm ----------------------------------------------------


def test_the_eight_shard_storm_matches_the_merged_view_engine():
    """``sync_checkin_storm``'s shape: 400 gateways on 8 shards, each
    checking in a 24-scalar bundle per round, with a health report after
    every round; here the bundle also carries the attach counters and
    every fifth gateway ships exemplar-linked latency rows."""
    orc = orchestrator(8)
    gateway_ids = [f"gw-1-{i}" for i in range(400)]
    for rnd in range(1, 4):
        orc.sim.now = 30.0 * rnd
        if rnd == 2:
            orc.convergence.note_publish(NETWORK_ID, 1)
        for i, gateway_id in enumerate(gateway_ids):
            metrics = {f"metric_{k:02d}": float(rnd + k) for k in range(24)}
            metrics.update(attach_requests=float(10 * rnd + i % 7),
                           attach_accepted=float(9 * rnd + i % 5),
                           cpu_util=(i % 10) / 10)
            latency = [(orc.sim.now - 1.0, 0.1 * (i % 4), 1000 * i + rnd)] \
                if i % 5 == 0 else []
            checkin(orc, gateway_id, rnd, 1 if i % 3 else 0, orc.sim.now,
                    metrics, latency)
        assert_same_health(orc, gateway_ids[::37])


# -- real AGWs through a crash and a backhaul outage -------------------------------


def faulted_fleet():
    """The health fleet (real AGWs, 3 shards), then an AGW crash and
    recovery and a backhaul outage of one shard; yields the run at each
    quiescent point."""
    from repro.obs.scenario import run_health_fleet

    run = run_health_fleet(num_agws=6, num_shards=3, ues_per_agw=2,
                           duration=60.0, seed=5)
    site = run.site
    sim, agws = site.sim, site.agws
    yield run
    crashed = agws[1]
    crashed.crash()
    sim.run(until=sim.now + 20.0)
    yield run
    crashed.recover()
    sim.run(until=sim.now + 30.0)
    yield run
    # Every UE re-attaches during the outage: the AGWs cut off serve it
    # headless and back-fill the latency rows once the shard is back.
    for n, ue in enumerate(site.ues):
        if ue.is_registered:
            ue.detach(switch_off=False)
        sim.call_later(5.0 + 2.0 * n, ue.attach)
    shard_node = site.orc.shard_node_for(agws[2].node)
    failed = [agw.magmad.stats["checkins_failed"] for agw in agws]
    site.network.set_node_up(shard_node, False)
    sim.run(until=sim.now + 40.0)
    # The outage bites exactly the AGWs that shard owns.
    cut_off = [site.orc.shard_node_for(agw.node) == shard_node
               for agw in agws]
    assert [agw.magmad.stats["checkins_failed"] > before
            for agw, before in zip(agws, failed)] == cut_off
    assert not all(cut_off)
    yield run
    site.network.set_node_up(shard_node, True)
    sim.run(until=sim.now + 30.0)
    yield run


def test_the_faulted_health_fleet_matches_the_merged_view_engine():
    """At each of the five points every gateway lives on its owner shard
    only (``assert_same_health`` checks that first), and the reports
    agree."""
    points = 0
    for run in faulted_fleet():
        assert_same_health(run.site.orc,
                           [agw.node for agw in run.site.agws])
        points += 1
    assert points == 5


def test_the_ownership_check_catches_what_lives_off_the_owner():
    orc = orchestrator(2)
    checkin(orc, "gw-0", 1, 0, 0.0, {"cpu_util": 0.5})
    assert shard_ownership_violations(orc) == []
    stray = next(shard for shard in orc.shards
                 if shard is not orc.shard_for("gw-0"))
    stray.metricsd.ingest("cpu_util", 0.5, 0.0, {"gateway_id": "gw-0"})
    stray.statesync.handle_checkin({"gateway_id": "gw-0"})
    violations = shard_ownership_violations(orc)
    assert len(violations) == 2
    assert all("gw-0" in v and stray.shard_id in v for v in violations)
