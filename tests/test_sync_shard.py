"""Sharded orchestrator: assignment, routing, fail/restore (repro.core.sync)."""

import pytest

from repro.core.orchestrator import Orchestrator
from repro.core.orchestrator.statesync import StateSync
from repro.core.sync import ConsistentHashRing
from repro.experiments.scaling import AgwStub
from repro.net import Network
from repro.net.simnet import Link
from repro.sim import RngRegistry, Simulator
from repro.sim.sansim import SimSan


def assert_clean(san):
    assert san.ok, "\n".join(
        f"{r['code']} {r['check']}: {r['message']}\n{r.get('stack') or ''}"
        for r in san.reports)


# -- assignment: stable and balanced ------------------------------------------------


def test_assignment_is_stable_across_ring_instances():
    ids = [f"orc-s{i}" for i in range(8)]
    ring_a = ConsistentHashRing(ids)
    ring_b = ConsistentHashRing(list(reversed(ids)))
    for i in range(1000):
        gid = f"agw-{i}"
        assert ring_a.shard_for(gid) == ring_b.shard_for(gid)


def test_assignment_is_balanced_at_10k_gateways():
    """Chi-square over 8 shards at 10k gateways.

    A vnode ring is not a perfect multinomial sampler (arc lengths vary),
    but at 256 vnodes/shard the measured statistic is ~9.5 — under the
    95% critical value for df=7 (14.07).  The bound leaves margin for a
    re-tuned hash while still catching gross imbalance (a broken ring
    concentrates load and blows past 100).
    """
    ring = ConsistentHashRing([f"orc-s{i}" for i in range(8)])
    counts = ring.assignments(f"agw-{i}" for i in range(10_000))
    expected = 10_000 / 8
    chi2 = sum((count - expected) ** 2 / expected
               for count in counts.values())
    assert chi2 < 20.0, f"shard imbalance: chi2={chi2:.1f} counts={counts}"
    assert max(counts.values()) / expected < 1.15


def test_ring_growth_moves_about_one_nth_of_keys():
    ids = [f"orc-s{i}" for i in range(8)]
    before = ConsistentHashRing(ids)
    after = ConsistentHashRing(ids + ["orc-s8"])
    moved = sum(1 for i in range(10_000)
                if before.shard_for(f"agw-{i}") != after.shard_for(f"agw-{i}"))
    # Consistent hashing: growing 8 -> 9 should move ~1/9 of keys
    # (measured: 1004), nowhere near the ~8/9 a mod-N scheme reshuffles.
    assert moved < 2_000


# -- routing: check-ins and metrics land on the owning shard ------------------------


def build_sharded(num_shards=4, num_agws=12, interval=5.0, sanitizer=None,
                  via_main=0):
    """``num_agws`` stubs address their shard's node; ``via_main`` more
    address the main node, which routes them in-process."""
    sim = Simulator(sanitizer=sanitizer)
    rng = RngRegistry(7)
    network = Network(sim, rng)
    orc = Orchestrator(sim, network, "orc", num_shards=num_shards)
    stubs = []
    for i in range(num_agws + via_main):
        node = f"agw-{i}"
        target = orc.shard_node_for(node) if i < num_agws else "orc"
        network.connect(node, target, Link(latency=0.02))
        stubs.append(AgwStub(sim, network, node, target,
                             interval=interval, offset=0.1 + 0.01 * i))
    return sim, network, orc, stubs


@pytest.mark.parametrize("num_shards", [1, 4])
def test_checkins_land_on_owning_shard_only(num_shards):
    sim, network, orc, stubs = build_sharded(num_shards=num_shards,
                                             via_main=4)
    sim.run(until=12.0)
    for stub in stubs:
        owner = orc.shard_for(stub.node)
        assert owner.statesync.gateway(stub.node) is not None
        for shard in orc.shards:
            if shard is not owner:
                assert shard.statesync.gateway(stub.node) is None
    # The merged view is shard-count agnostic.
    assert orc.statesync.gateway_count() == len(stubs)
    assert {g.gateway_id for g in orc.statesync.gateways()} == \
        {stub.node for stub in stubs}


@pytest.mark.parametrize("num_shards", [0, -1])
def test_orchestrator_needs_at_least_one_shard(num_shards):
    sim = Simulator()
    network = Network(sim, RngRegistry(0))
    with pytest.raises(ValueError, match="at least one shard"):
        Orchestrator(sim, network, "orc", num_shards=num_shards)


def test_metrics_land_on_owning_shard_and_merge():
    sim, network, orc, stubs = build_sharded()
    sim.run(until=12.0)
    for stub in stubs:
        owner = orc.shard_for(stub.node)
        labels = {"gateway_id": stub.node}
        assert owner.metricsd.query("sessions_active", labels)
        for shard in orc.shards:
            if shard is not owner:
                assert not shard.metricsd.query("sessions_active", labels)
        # Northbound queries see every shard's series.
        assert orc.query_metric("sessions_active", labels)
    assert orc.metricsd.sum_latest("sessions_active") == sum(
        shard.metricsd.sum_latest("sessions_active")
        for shard in orc.shards)


def test_metrics_backfill_lands_on_owning_shard():
    sim, network, orc, stubs = build_sharded(num_agws=4)
    gid = stubs[0].node
    owner = orc.shard_for(gid)
    backlog = [{"seq": s, "time": float(s), "metrics": {"cpu_util": 0.5}}
               for s in (1, 2, 3)]
    response = owner.statesync.handle_checkin(
        {"gateway_id": gid, "config_version": 0,
         "metrics_backlog": backlog})
    assert response["metrics_ack"] == 3
    assert len(owner.metricsd.query("cpu_util", {"gateway_id": gid})) == 3
    for shard in orc.shards:
        if shard is not owner:
            assert not shard.metricsd.query("cpu_util", {"gateway_id": gid})


# -- shard fail / restore -----------------------------------------------------------


def test_shard_statesync_checkpoint_restore_roundtrip():
    sim, network, orc, stubs = build_sharded()
    sim.run(until=12.0)
    shard = next(s for s in orc.shards if s.statesync.gateway_count() > 0)
    snapshot = shard.statesync.checkpoint()
    fresh = StateSync(sim, orc.store, digests=orc.digests)
    assert fresh.restore(snapshot) == shard.statesync.gateway_count()
    assert fresh.checkpoint() == snapshot
    for state in shard.statesync.gateways():
        restored = fresh.gateway(state.gateway_id)
        assert restored == state
    # Derived indexes work after restore.
    assert fresh.offline_gateways(1e9) == []
    assert fresh.stale_gateways() == shard.statesync.stale_gateways()


def test_shard_fail_restore_is_simsan_clean():
    """A shard crash loses only soft state: restoring the registry from
    its checkpoint brings the shard back with no orphaned timers and no
    lost convergence (the next check-ins still route and succeed)."""
    san = SimSan()
    sim, network, orc, stubs = build_sharded(sanitizer=san)
    sim.run(until=12.0)
    shard = next(s for s in orc.shards if s.statesync.gateway_count() > 0)
    count = shard.statesync.gateway_count()
    snapshot = shard.statesync.checkpoint()
    # Crash: the registry evaporates; the durable config store survives.
    shard.statesync.restore({"gateways": []})
    assert shard.statesync.gateway_count() == 0
    # Restore from the checkpoint and keep serving.
    assert shard.statesync.restore(snapshot) == count
    sim.run(until=30.0)
    assert shard.statesync.gateway_count() >= count
    ok = sum(stub.checkins_ok for stub in stubs)
    failed = sum(stub.checkins_failed for stub in stubs)
    assert failed == 0 and ok > 0
    converged = sum(1 for stub in stubs
                    if stub.config_version == orc.store.version)
    assert converged == len(stubs)
    assert_clean(san)
