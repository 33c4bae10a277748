"""BENCH: the per-packet datapath lookup stack (ROADMAP north star).

The paper's §3.5 data plane is real OVS, whose per-packet cost rests on a
tuple-space-search classifier plus a flow cache.  This benchmark measures
our reproduction of that stack on a session-shaped pipeline (the 3-table
layout ``pipelined`` programs: classify, policy, egress - 5 rules and one
meter per session):

- **linear**: the pre-classifier baseline - every table lookup scans the
  priority-ordered rule list (restored here by patching ``FlowTable.lookup``);
- **tss**: tuple-space search only (microflow cache disabled);
- **tss+cache**: the full stack - first packet of a flow classifies and
  memoizes its rule chain, the rest replay it;
- **churn**: tss+cache under continuous control-plane churn (rule
  add/delete every ``CHURN_EVERY`` packets), proving generation-based
  invalidation re-converges instead of thrashing.

Run with::

    pytest benchmarks/test_bench_datapath.py --benchmark-only -s

Set ``DATAPATH_BENCH_SMOKE=1`` (CI) for small sizes and loose floors.
"""

import os
import time

import pytest

from repro.core.agw import AgwContext, Pipelined
from repro.dataplane import FlowMatch, FlowMod, ip_packet
from repro.dataplane import actions as act
from repro.dataplane.flowtable import FlowTable
from repro.experiments.common import format_table
from repro.lte import make_imsi
from repro.net import Network
from repro.sim import Simulator

from conftest import run_once

SMOKE = bool(os.environ.get("DATAPATH_BENCH_SMOKE"))
# Installed-rule targets; each session contributes 5 rules + 1 meter.
RULE_COUNTS = [100, 500] if SMOKE else [100, 1000, 10_000]
PACKETS_FAST = 2_000 if SMOKE else 10_000
PACKETS_LINEAR = 100 if SMOKE else 200
# Acceptance: >= 10x packets/sec over the linear scan at the largest size
# (the smoke run uses a loose floor - tiny sizes, noisy CI runners).
SPEEDUP_FLOOR = 2.0 if SMOKE else 10.0
CHURN_EVERY = 200
CHURN_FLOWS = 16


def ue_ip(i):
    return f"10.{128 + (i >> 16)}.{(i >> 8) & 0xFF}.{i & 0xFF}"


def build_datapath(n_rules):
    """A pipelined-programmed switch with ~n_rules session rules."""
    sim = Simulator()
    pipelined = Pipelined(AgwContext(sim, Network(sim), "agw-dp"))
    sessions = max(1, n_rules // 5)
    with pipelined.batch():
        for i in range(sessions):
            imsi = make_imsi(i + 1)
            pipelined.install_session(imsi, ue_ip(i), 0x1000 + i, 1000.0)
            pipelined.set_enb_tunnel(imsi, 0x80000 + i, "enb-1")
    # Discard delivered packets, and widen the meter buckets: the sim
    # clock is frozen at 0, so token buckets never refill - without this
    # the benchmark would measure burst exhaustion, not lookup cost.
    pipelined.set_port_delivery(pipelined.ran_port, lambda p: None)
    pipelined.set_port_delivery(pipelined.sgi_port, lambda p: None)
    for meter in pipelined.switch.meters.values():
        meter.burst_bytes = 10 ** 15
        meter._tokens = float(10 ** 15)
    return pipelined, sessions


def linear_lookup_over(tables):
    """The pre-classifier FlowTable.lookup: O(rules) scan per table.

    The priority-ordered lists are snapshotted here, once: ``rules()``
    sorts on demand, and the tables do not change during the linear leg.
    """
    ordered = [table.rules() for table in tables]

    def lookup(table, pkt, in_port=None):
        table.lookups += 1
        for rule in ordered[table.table_id]:
            if rule.match.matches(pkt, in_port):
                table.matches += 1
                return rule
        return None

    return lookup


def drive(pipelined, packets, flows, sessions, churn_every=None):
    """Inject downlink packets round-robin over ``flows`` UEs; pkts/sec.

    Flows are strided across the whole session range so the linear
    baseline pays the real average scan depth rather than always finding
    its rules at the front of the table.
    """
    switch = pipelined.switch
    inject = switch.inject
    port = pipelined.sgi_port
    stride = max(1, sessions // flows)
    tx_before = switch.stats["tx"]
    churn_match = FlowMatch(ip_dst="192.0.2.1")  # matches no benchmark flow
    t0 = time.perf_counter()
    for j in range(packets):
        inject(ip_packet("8.8.8.8", ue_ip((j % flows) * stride), dport=80),
               port)
        if churn_every and (j + 1) % churn_every == 0:
            switch.apply(FlowMod(command=FlowMod.ADD, table_id=0, priority=1,
                                 match=churn_match, actions=[act.Drop()]))
            switch.apply(FlowMod(command=FlowMod.DELETE, table_id=0,
                                 priority=1, match=churn_match))
    elapsed = time.perf_counter() - t0
    # Every downlink packet must have been classified and delivered.
    assert switch.stats["tx"] - tx_before == packets
    return packets / elapsed


def measure(n_rules):
    """(linear, tss, tss+cache) pkts/sec plus cache/classifier stats."""
    flows = lambda sessions: min(sessions, 256)

    pipelined, sessions = build_datapath(n_rules)
    pipelined.switch.microflow_enabled = False
    original = FlowTable.lookup
    FlowTable.lookup = linear_lookup_over(pipelined.switch.tables)
    try:
        linear_pps = drive(pipelined, PACKETS_LINEAR, flows(sessions), sessions)
    finally:
        FlowTable.lookup = original

    pipelined, sessions = build_datapath(n_rules)
    pipelined.switch.microflow_enabled = False
    tss_pps = drive(pipelined, PACKETS_FAST, flows(sessions), sessions)

    pipelined, sessions = build_datapath(n_rules)
    cached_pps = drive(pipelined, PACKETS_FAST, flows(sessions), sessions)
    dp = pipelined.datapath_stats()
    mf = dp["microflow"]
    hit_rate = mf["hits"] / max(1, mf["hits"] + mf["misses"])
    subtables = sum(t["subtables"] for t in dp["tables"])
    total_rules = sum(t["rules"] for t in dp["tables"])
    return (total_rules, sessions, linear_pps, tss_pps, cached_pps,
            hit_rate, subtables)


@pytest.mark.benchmark(group="datapath")
def test_lookup_stack_speedup(benchmark):
    rows = run_once(benchmark, lambda: [measure(n) for n in RULE_COUNTS])

    print()
    print(format_table(
        ["rules", "sessions", "linear pps", "tss pps", "tss+cache pps",
         "hit rate", "subtables", "speedup"],
        [[total, sessions, round(lin), round(tss), round(cached),
          round(hit_rate, 3), subtables, round(cached / lin, 1)]
         for total, sessions, lin, tss, cached, hit_rate, subtables in rows]))

    # O(#masks) structure: the subtable count stays flat as rules grow.
    assert all(row[6] <= 8 for row in rows)
    # The cache engages (flows repeat, so almost all packets hit).
    assert all(row[5] > 0.9 for row in rows)
    # Acceptance: >= 10x over the pre-change linear scan at the largest
    # rule count (both classifier-only and the full stack must clear it).
    *_, (total, _s, linear_pps, tss_pps, cached_pps, _h, _st) = rows
    assert cached_pps >= SPEEDUP_FLOOR * linear_pps, (
        f"{total} rules: cache {cached_pps:.0f} pps vs linear "
        f"{linear_pps:.0f} pps")
    assert tss_pps >= SPEEDUP_FLOOR * linear_pps, (
        f"{total} rules: tss {tss_pps:.0f} pps vs linear "
        f"{linear_pps:.0f} pps")


@pytest.mark.benchmark(group="datapath")
def test_churn_invalidation_does_not_thrash(benchmark):
    n_rules = RULE_COUNTS[min(1, len(RULE_COUNTS) - 1)]

    # Baseline: cache on, no churn, same small flow set.
    pipelined, sessions = build_datapath(n_rules)
    baseline_pps = drive(pipelined, PACKETS_FAST, CHURN_FLOWS, sessions)

    # Churn: a rule add + strict delete every CHURN_EVERY packets, each
    # bumping the generation and invalidating every cached chain.
    pipelined, sessions = build_datapath(n_rules)
    churn_pps = run_once(benchmark, drive, pipelined, PACKETS_FAST,
                         CHURN_FLOWS, sessions, CHURN_EVERY)
    dp = pipelined.datapath_stats()
    mf = dp["microflow"]
    hit_rate = mf["hits"] / max(1, mf["hits"] + mf["misses"])

    print()
    print(format_table(
        ["mode", "pkts", "pps", "hit rate", "invalidations"],
        [["no churn", PACKETS_FAST, round(baseline_pps), "~1.0", 0],
         [f"churn every {CHURN_EVERY}", PACKETS_FAST, round(churn_pps),
          round(hit_rate, 3), mf["invalidations"]]]))

    # Invalidation really fired throughout the run...
    assert mf["invalidations"] >= 2 * (PACKETS_FAST // CHURN_EVERY)
    # ...the cache re-converged between churn events (16 flows re-memoize
    # in 16 of every 200 packets)...
    assert hit_rate > 0.8
    # ...and throughput stayed in the same regime as the churn-free cache
    # path rather than collapsing to per-packet classification.
    assert churn_pps > 0.3 * baseline_pps
