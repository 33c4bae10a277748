"""Digest-tree and reconcile-protocol correctness (repro.core.sync).

Property tests for the Merkle-digest sync engine: digest equality must
track content equality exactly, a reconcile walk must converge any
divergence within tree-depth rounds, and every byte of it must be
deterministic under a fixed seed (replayable simulations).
"""

from hashlib import blake2b

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agw import SubscriberProfile
from repro.core.orchestrator import ConfigStore
from repro.core.orchestrator.statesync import scoped
from repro.core.sync import (
    DigestIndex,
    DigestMirror,
    DigestTree,
    OverlayTree,
    ReconcileClient,
    ReconcileServer,
    canonical_bytes,
    entry_digest,
)
from repro.net.rpc import payload_bytes

KEYS = [f"k{i}" for i in range(40)]

# (key, value-or-None): None means delete.  Values are small ints so
# interleavings frequently rewrite the same key with the same value.
ops_strategy = st.lists(
    st.tuples(st.sampled_from(KEYS),
              st.one_of(st.none(), st.integers(min_value=0, max_value=5))),
    max_size=60)


def apply_ops(tree, content, ops):
    for key, value in ops:
        if value is None:
            tree.delete(key)
            content.pop(key, None)
        else:
            tree.put(key, value)
            content[key] = value


# -- digest equality <=> content equality -----------------------------------------


@settings(max_examples=60, deadline=None)
@given(ops_strategy, ops_strategy)
def test_digest_equality_iff_content_equality(ops_a, ops_b):
    tree_a, content_a = DigestTree(fanout=4, depth=2), {}
    tree_b, content_b = DigestTree(fanout=4, depth=2), {}
    apply_ops(tree_a, content_a, ops_a)
    apply_ops(tree_b, content_b, ops_b)
    assert (tree_a.root() == tree_b.root()) == (content_a == content_b)
    assert len(tree_a) == len(content_a)
    assert len(tree_b) == len(content_b)


@settings(max_examples=40, deadline=None)
@given(ops_strategy)
def test_interleaving_order_does_not_matter_only_final_content(ops):
    tree, content = DigestTree(fanout=4, depth=2), {}
    apply_ops(tree, content, ops)
    rebuilt = DigestTree(fanout=4, depth=2)
    for key, value in content.items():
        rebuilt.put(key, value)
    assert rebuilt.root() == tree.root()


def test_put_identical_value_is_a_digest_noop():
    tree = DigestTree()
    assert tree.put("a", 1)
    root = tree.root()
    assert not tree.put("a", 1)
    assert tree.root() == root
    assert tree.put("a", 2)
    assert tree.root() != root


def test_delete_missing_key_is_a_noop():
    tree = DigestTree()
    empty_root = tree.root()
    assert not tree.delete("ghost")
    assert tree.root() == empty_root


def test_entry_digest_binds_key_and_value():
    assert entry_digest("a", 1) != entry_digest("a", 2)
    assert entry_digest("a", 1) != entry_digest("b", 1)
    assert entry_digest("a", "1") != entry_digest("a", 1)


def test_canonical_bytes_rejects_opaque_objects():
    class Opaque:
        pass

    try:
        canonical_bytes(Opaque())
    except TypeError:
        pass
    else:
        raise AssertionError("expected TypeError for opaque object")


def test_canonical_bytes_is_structural():
    assert canonical_bytes({"b": 1, "a": 2}) == canonical_bytes(
        dict([("a", 2), ("b", 1)]))
    assert canonical_bytes([1, 2]) != canonical_bytes([2, 1])
    assert canonical_bytes({1, 2}) == canonical_bytes({2, 1})


# -- overlay trees -----------------------------------------------------------------


def test_overlay_reads_through_and_copies_on_write():
    base = DigestTree(fanout=4, depth=2)
    for key in KEYS[:20]:
        base.put(key, "v")
    base_root = base.root()
    overlay = OverlayTree(base)
    assert overlay.root() == base_root
    assert len(overlay) == len(base)
    overlay.put("extra", 1)
    assert overlay.root() != base_root
    assert base.root() == base_root          # base untouched
    assert base.leaf_entries(base.path_for_key("extra")).get("extra") is None
    overlay.delete("extra")
    assert overlay.root() == base_root


def test_overlay_delete_of_base_key_copies_only_that_bucket():
    base = DigestTree(fanout=4, depth=2)
    for key in KEYS[:20]:
        base.put(key, "v")
    overlay = OverlayTree(base)
    victim = KEYS[3]
    assert overlay.delete(victim)
    assert base.leaf_entries(base.path_for_key(victim)).get(victim)
    assert overlay.leaf_entries(
        overlay.path_for_key(victim)).get(victim) is None
    assert len(overlay) == len(base) - 1


def all_paths(fanout, depth):
    """Every node path of a tree, root first, leaves included."""
    paths = [()]
    for level in range(depth):
        paths += [path + (digit,) for path in paths if len(path) == level
                  for digit in range(fanout)]
    return paths


@settings(max_examples=60, deadline=None)
@given(ops_strategy, ops_strategy, ops_strategy, ops_strategy)
def test_overlays_equal_a_plain_tree_of_the_same_content(
        base_ops, ops_a, ops_b, ops_nested):
    base, base_content = DigestTree(fanout=4, depth=2), {}
    apply_ops(base, base_content, base_ops)
    # Two sibling overlays of one base, and an overlay of an overlay.
    views = []
    for parent_content, parent, ops in (
            (base_content, base, ops_a), (base_content, base, ops_b)):
        content = dict(parent_content)
        overlay = OverlayTree(parent)
        apply_ops(overlay, content, ops)
        views.append((overlay, content))
    nested_content = dict(views[0][1])
    nested = OverlayTree(views[0][0])
    apply_ops(nested, nested_content, ops_nested)
    views.append((nested, nested_content))
    for overlay, content in views:
        plain = DigestTree(fanout=4, depth=2)
        apply_ops(plain, {}, content.items())
        assert len(overlay) == len(plain) == len(content)
        for path in all_paths(4, 2):
            assert overlay.node(path) == plain.node(path), path
            if len(path) == 2:
                assert overlay.leaf_entries(path) == plain.leaf_entries(path)


def test_untouched_overlay_root_does_no_per_leaf_work():
    base = DigestTree()
    for key in KEYS:
        base.put(key, "v")
    base_root = base.root()
    overlay = OverlayTree(OverlayTree(base))     # through two levels
    recomputes = base.stats["node_recomputes"]
    assert overlay.root() is base_root           # the base's cached object
    assert overlay.stats["node_recomputes"] == 0
    assert base.stats["node_recomputes"] == recomputes
    # One write dirties one root-to-leaf path: depth recomputes, no more.
    overlay.put("extra", 1)
    assert overlay.root() != base_root
    assert overlay.stats["node_recomputes"] == overlay.depth
    assert base.stats["node_recomputes"] == recomputes


def test_base_of_an_overlay_is_read_only():
    base = DigestTree(fanout=4, depth=2)
    for key in KEYS[:20]:
        base.put(key, "v")
    overlay = OverlayTree(base)
    base_root, base_len = overlay.root(), len(overlay)
    # A write that got through would leave the overlay serving the old
    # root and the old len() for a base that no longer has them.
    for write in (lambda: base.put("late", 1),
                  lambda: base.put_digest("late", 7),
                  lambda: base.delete(KEYS[0])):
        try:
            write()
        except RuntimeError:
            pass
        else:
            raise AssertionError("write to a shared base went through")
    assert (base.root(), len(base)) == (base_root, base_len)
    assert (overlay.root(), len(overlay)) == (base_root, base_len)


def test_mirror_overlay_freezes_its_base_and_overlays_nest():
    shared = DigestMirror(fanout=4, depth=2)
    shared.rebuild("subscribers", {key: "v" for key in KEYS[:20]})
    first = shared.overlay()
    try:
        shared.apply_delta("subscribers", {"late": 1}, [])
    except RuntimeError:
        pass
    else:
        raise AssertionError("delta applied to a shared mirror")
    first.apply_delta("subscribers", {"extra": 1}, [KEYS[0]])
    second = first.overlay()                     # overlay of an overlay
    assert second.roots() == first.roots() != shared.roots()
    second.apply_delta("subscribers", {KEYS[0]: "v"}, ["extra"])
    assert second.roots() == shared.roots()
    assert len(second.trees["subscribers"]) == 20
    # Rebuilding swaps in a fresh tree; views of the old one keep it.
    shared.rebuild("subscribers", {"only": 1})
    assert second.roots()["subscribers"] != shared.roots()["subscribers"]
    assert len(second.trees["subscribers"]) == 20


@pytest.mark.parametrize("overlaid", [False, True], ids=["plain", "overlay"])
def test_a_path_digit_out_of_range_names_no_node(overlaid):
    """``(0, 17)`` used to read bucket ``(1, 1)``, ``(0, -1)`` the last
    bucket, and a bad first digit died with IndexError."""
    tree = DigestTree()
    for key in KEYS:
        tree.put(key, "v")
    if overlaid:
        tree = OverlayTree(tree)
        tree.put("extra", 1)
    for read in (lambda: tree.leaf_entries((0, 17)),
                 lambda: tree.node((0, 17)),
                 lambda: tree.node((0, -1)),
                 lambda: tree.node((17,)),
                 lambda: tree.children((16,)),
                 lambda: tree.node((0, 0, 0)),           # deeper than the tree
                 lambda: tree.children((0, 0)),          # a leaf
                 lambda: tree.leaf_entries((0,))):       # not a leaf
        with pytest.raises(ValueError):
            read()
    assert tree.node([0, 15]) == tree.node((0, 15))      # lists off the wire


# -- the reconcile walk ------------------------------------------------------------


def run_reconcile(store, digests, mirror, applied, network_id="default",
                  messages=None):
    """Drive the sans-io walk to completion; returns (result, transcript).

    ``messages``, when given, collects the sync opener and every request
    and response in wire order.
    """
    server = ReconcileServer(digests, store, scoped)
    sync = server.sync_info(network_id, mirror.roots())
    transcript = [canonical_bytes(sorted(sync))]
    if messages is None:
        messages = []
    messages.append(sync)

    def apply_delta(label, upserts, deletes, version):
        content = applied.setdefault(label, {})
        for key in deletes:
            content.pop(key, None)
        content.update(upserts)

    client = ReconcileClient(mirror, apply_delta, network_id, "gw-1")
    request = client.start({"sync": sync, "config_version": store.version})
    while request is not None:
        transcript.append(canonical_bytes(request))
        response = server.handle(request)
        response["config_version"] = store.version
        transcript.append(canonical_bytes(response))
        messages += (request, response)
        request = client.feed(response)
    return client.result(), b"".join(transcript)


def seeded_stores(orc_ops, gw_ops):
    """An orchestrator store + a gateway whose applied state diverges."""
    store = ConfigStore()
    content = {}
    for key, value in orc_ops:
        if value is None:
            if store.contains("subscribers", key):
                store.delete("subscribers", key)
            content.pop(key, None)
        else:
            store.put("subscribers", key, value)
            content[key] = value
    digests = DigestIndex(store, fanout=4, depth=2)
    mirror = DigestMirror(fanout=4, depth=2)
    applied = {"subscribers": {}}
    for key, value in gw_ops:
        if value is None:
            applied["subscribers"].pop(key, None)
        else:
            applied["subscribers"][key] = value
    mirror.rebuild("subscribers", applied["subscribers"])
    return store, digests, mirror, applied, content


@settings(max_examples=60, deadline=None)
@given(ops_strategy, ops_strategy)
def test_reconcile_converges_within_depth_rounds(orc_ops, gw_ops):
    store, digests, mirror, applied, content = seeded_stores(orc_ops, gw_ops)
    result, _ = run_reconcile(store, digests, mirror, applied)
    assert result.converged
    assert result.rounds <= mirror.depth
    # The gateway's applied state is now *exactly* the orchestrator's.
    assert applied["subscribers"] == content
    # And the digests agree on it.
    server_roots = ReconcileServer(digests, store, scoped).roots("default")
    for label, root in mirror.roots().items():
        assert root == server_roots[label]


@settings(max_examples=30, deadline=None)
@given(ops_strategy, ops_strategy)
def test_reconcile_transcript_is_bit_identical_on_replay(orc_ops, gw_ops):
    first = seeded_stores(orc_ops, gw_ops)
    second = seeded_stores(orc_ops, gw_ops)
    _, transcript_a = run_reconcile(*first[:4])
    _, transcript_b = run_reconcile(*second[:4])
    assert transcript_a == transcript_b


def churn_profile(index, generation=0):
    return SubscriberProfile(imsi=f"00101{index:010d}",
                             k=bytes([index % 251]) * 16,
                             opc=bytes([(index + generation) % 241 + 1]) * 16)


# Taken at the commit before nodes were numbered (DESIGN.md §6.11): the
# wire of a many-leaf walk is not allowed to move.
CHURN_TRANSCRIPT_BLAKE2B = "06e40f03148825ff2cacdef565045e7d"
CHURN_MESSAGE_BYTES = [331, 241, 6969, 30111, 27344]    # opener, 2 x (up, down)
CHURN_RESULT = (2, 135, 60, 139)     # rounds, upserts, tombstones, leaves


def test_golden_wire_of_a_many_leaf_walk():
    """120 adds, 60 deletes and 15 rewrites over a 2,000-entry namespace,
    walked by one overlay gateway of a shared mirror: the transcript's
    hash and every message's size are pinned."""
    store = ConfigStore()
    content = {}
    for index in range(2000):
        entry = churn_profile(index)
        store.put("subscribers", entry.imsi, entry)
        content[entry.imsi] = entry
    digests = DigestIndex(store)
    shared = DigestMirror()
    shared.rebuild("subscribers", content)
    mirror = shared.overlay()
    applied = {"subscribers": dict(content)}
    for index in range(2000, 2120):
        entry = churn_profile(index)
        store.put("subscribers", entry.imsi, entry)
    for index in range(0, 1980, 33):
        store.delete("subscribers", churn_profile(index).imsi)
    for index in range(7, 1500, 100):
        entry = churn_profile(index, generation=1)
        store.put("subscribers", entry.imsi, entry)
    messages = []
    result, transcript = run_reconcile(store, digests, mirror, applied,
                                       messages=messages)
    assert result.converged
    assert applied["subscribers"] == store.namespace("subscribers")
    assert (result.rounds, result.upserts, result.tombstones,
            result.leaves_shipped) == CHURN_RESULT
    assert [payload_bytes(message) for message in messages] == \
        CHURN_MESSAGE_BYTES
    assert blake2b(transcript, digest_size=16).hexdigest() == \
        CHURN_TRANSCRIPT_BLAKE2B


def test_reconcile_tombstones_delete_gateway_extras():
    store = ConfigStore()
    store.put("subscribers", "keep", 1)
    digests = DigestIndex(store, fanout=4, depth=2)
    mirror = DigestMirror(fanout=4, depth=2)
    applied = {"subscribers": {"keep": 1, "zombie-1": 9, "zombie-2": 9}}
    mirror.rebuild("subscribers", applied["subscribers"])
    result, _ = run_reconcile(store, digests, mirror, applied)
    assert result.converged
    assert result.tombstones == 2
    assert applied["subscribers"] == {"keep": 1}


def test_reconcile_server_refuses_a_malformed_path():
    store = ConfigStore()
    for key in KEYS:
        store.put("subscribers", key, 1)
    server = ReconcileServer(DigestIndex(store), store, scoped)
    request = {"gateway_id": "gw-1", "network_id": "default"}
    listed = {key: 7 for key in KEYS[:3]}
    # Answering from an aliased bucket would tombstone every listed key.
    with pytest.raises(ValueError):
        server.handle({**request, "ns_leaves": {"subscribers":
                                                {(0, 17): listed}}})
    with pytest.raises(ValueError):
        server.handle({**request, "ns_paths": {"subscribers": [(16,)]}})


def test_matching_namespaces_are_elided_entirely():
    store = ConfigStore()
    store.put("subscribers", "a", 1)
    digests = DigestIndex(store, fanout=4, depth=2)
    mirror = DigestMirror(fanout=4, depth=2)
    mirror.rebuild("subscribers", {"a": 1})
    server = ReconcileServer(digests, store, scoped)
    assert server.sync_info("default", mirror.roots()) == {}


def test_digest_index_tracks_store_incrementally():
    store = ConfigStore()
    store.put("subscribers", "pre", 1)       # before the index exists
    digests = DigestIndex(store, fanout=4, depth=2)
    assert digests.tree("subscribers").leaf_entries(
        digests.tree("subscribers").path_for_key("pre"))
    store.put("subscribers", "post", 2)      # incremental update
    store.delete("subscribers", "pre")
    fresh = DigestTree(fanout=4, depth=2)
    for key, value in store.namespace("subscribers").items():
        fresh.put(key, value)
    assert digests.root("subscribers") == fresh.root()
    assert digests.stats["incremental_updates"] == 2
