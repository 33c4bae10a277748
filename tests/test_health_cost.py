"""Cost of a health report, as call counts.

A gateway's samples and registration live on its owner shard only, so
scoring it takes one read per metric from that shard: three ``query``
(attach requested, accepted, latency) and one ``latest`` (CPU).  Read
through the merged views, every one of those went to all N shards - on
8 shards 24 ``query`` and 8 ``latest`` per gateway - and each gateway's
rollup key cost a consistent-hash ring lookup.  Like the other cost
tests these count executed calls under ``cProfile``, the benchmark's
``host_calls`` counter, so they are deterministic.
"""

from costs import profiled
from repro.core.orchestrator import Orchestrator
from repro.net import Network
from repro.sim import RngRegistry, Simulator

GATEWAYS = 40


def fleet(num_shards=8):
    """``GATEWAYS`` gateways checked in to their owner shards, each with
    attach counters, a CPU sample and one exemplar-linked latency row."""
    sim = Simulator()
    orc = Orchestrator(sim, Network(sim, RngRegistry(1)), "orc",
                       num_shards=num_shards)
    sim.now = 10.0
    for i in range(GATEWAYS):
        gateway_id = f"gw-{i}"
        orc.shard_for(gateway_id).statesync.handle_checkin({
            "gateway_id": gateway_id, "config_version": 0,
            "metrics_backlog": [{
                "seq": 1, "time": 9.0,
                "metrics": {"attach_requests": 1.0, "attach_accepted": 1.0,
                            "cpu_util": 0.2},
                "latency": {"attach_latency_s": [[8.0, 0.3, i + 1]]}}],
        })
    return orc


def calls_to(entries, name, module):
    return sum(entry.callcount for entry in entries
               if getattr(entry.code, "co_name", None) == name
               and getattr(entry.code, "co_filename", "").endswith(module))


def test_a_report_reads_each_gateways_owner_shard_once_per_metric():
    orc = fleet()
    assert len(orc.shards) == 8
    report, entries = profiled(orc.health.report)
    assert report["fleet"]["agws"] == GATEWAYS
    assert calls_to(entries, "query", "metricsd.py") == 3 * GATEWAYS
    assert calls_to(entries, "latest", "metricsd.py") == GATEWAYS
    # The rollup key comes from the shard loop, not from the ring.
    assert calls_to(entries, "shard_for", "sync/shard.py") == 0
    # 66 per gateway as measured (258 through the merged views).
    assert sum(entry.callcount for entry in entries) <= 70 * GATEWAYS


def test_one_gateways_health_resolves_its_owner_once():
    orc = fleet()
    health, entries = profiled(orc.health.agw_health, "gw-3")
    assert health["shard"] == orc.shard_for("gw-3").shard_id
    assert calls_to(entries, "shard_for", "sync/shard.py") == 1
    assert calls_to(entries, "query", "metricsd.py") == 3
    assert calls_to(entries, "latest", "metricsd.py") == 1
