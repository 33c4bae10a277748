"""Cost of the digest tree's write path and of one walk, as call counts.

A check-in storm is thousands of gateways each doing a little tree work,
so what one ``put``, one dirty ``root()`` and one single-key walk cost
*is* the workload (DESIGN.md §6.11).  Like ``test_sync_entry_cost.py``
the checks count executed calls under ``cProfile`` - the benchmark's
``host_calls`` counter - so they are deterministic.  Every budget sits
between the numbered tree's count and the path-tuple tree's, which is
quoted beside it.
"""

import cProfile

from repro.core.orchestrator import ConfigStore
from repro.core.orchestrator.statesync import scoped
from repro.core.sync import (
    DigestIndex,
    DigestMirror,
    DigestTree,
    OverlayTree,
    ReconcileClient,
    ReconcileServer,
)


def counted(fn, *args):
    """``(result, calls)``: Python + C calls executed inside ``fn(*args)``."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn, *args)
    return result, sum(entry.callcount for entry in profiler.getstats()
                       if "_lsprof.Profiler" not in str(entry.code))


def calls(fn, *args):
    return counted(fn, *args)[1]


def key(index):
    return f"sub-{index:06d}"


def filled_tree(entries=2000):
    tree = DigestTree()
    for index in range(entries):
        tree.put_digest(key(index), index + 1)
    tree.root()
    return tree


def test_a_write_to_a_plain_tree_costs_about_ten_calls():
    tree = filled_tree()
    # 10 and 11 as measured (15 and 16 when nodes were named by paths):
    # the key's hash is 4 of them, the bucket's map 1-2, and a pop per level.
    assert calls(tree.put_digest, key(7), 999_999) <= 11
    assert calls(tree.delete, key(8)) <= 13


def test_an_overlays_first_write_to_a_bucket_copies_it_in_a_dozen_calls():
    overlay = OverlayTree(filled_tree())
    assert calls(overlay.put_digest, key(7), 999_999) <= 17     # 15; was 22


def test_an_overlays_root_after_one_put_rehashes_one_path():
    overlay = OverlayTree(filled_tree())
    overlay.put_digest(key(7), 999_999)
    # One sibling set per level, each one slice and one hash; the other
    # children of the root are answered by the base's cache.  48; was 334.
    assert calls(overlay.root) <= 100
    assert overlay.stats["node_recomputes"] == overlay.depth


def gateway_calls_of_a_single_key_walk(entries):
    """Calls on the gateway's side - ``start``, every ``feed``, ``result`` -
    of the walk that follows one northbound write."""
    store = ConfigStore()
    for index in range(entries):
        store.put("subscribers", key(index), index)
    shared = DigestMirror()
    shared.rebuild("subscribers", store.namespace("subscribers"))
    mirror = shared.overlay()
    store.put("subscribers", key(entries), entries)
    server = ReconcileServer(DigestIndex(store), store, scoped)
    sync = server.sync_info("default", mirror.roots())
    client = ReconcileClient(mirror, lambda *delta: None, "default", "gw-1")
    checkin = {"sync": sync, "config_version": store.version}
    request, total = counted(client.start, checkin)
    while request is not None:
        request, more = counted(client.feed, server.handle(request))
        total += more
    result, more = counted(client.result)
    assert result.converged
    assert (result.rounds, result.upserts) == (mirror.depth, 1)
    return total + more


def test_a_single_key_walk_costs_the_same_at_any_namespace_size():
    small = gateway_calls_of_a_single_key_walk(2_000)
    large = gateway_calls_of_a_single_key_walk(20_000)
    # 209 as measured; 696 when every child was compared through
    # DigestMirror.node -> OverlayTree.node -> DigestTree.node.
    assert small <= 320
    assert small == large
