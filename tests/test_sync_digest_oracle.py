"""The numbered digest tree is the path-tuple one, operation for operation.

``reference_digest_tree`` holds the retired ``DigestTree`` / ``OverlayTree``
that named every node by its path.  Random ``put`` / ``put_digest`` /
``delete`` sequences run against it and against the product side by side -
on a plain tree, an overlay, an overlay of an overlay and a tree swapped in
by ``DigestMirror.rebuild`` - and after every step everything a caller can
see must be equal: every node of every level, every sibling set, every
leaf bucket, the root, the length, key placement and the recompute counts
(the laziness is part of the contract: it is what the check-in storm
lives on).
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_digest_tree as reference
from repro.core.sync import DigestMirror, DigestTree, OverlayTree

KEYS = [f"key-{i}" for i in range(48)]

# Tiny digests make XOR accumulators cancel (two keys of one bucket with
# the same digest leave it at 0, the empty bucket's value).
op_strategy = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(KEYS), st.integers(0, 3)),
    st.tuples(st.just("put_digest"), st.sampled_from(KEYS),
              st.integers(1, 3)),
    st.tuples(st.just("delete"), st.sampled_from(KEYS)))

SHAPES = [(fanout, depth) for fanout in (2, 3, 16) for depth in (1, 2, 3)]


def node_count(fanout, depth):
    return (fanout ** (depth + 1) - 1) // (fanout - 1)


def apply_op(tree, op):
    return getattr(tree, op[0])(*op[1:])


def assert_same_view(tree, model, paths):
    """Everything observable, read in the same order on both sides."""
    assert tree.root() == model.root()
    assert len(tree) == len(model)
    for path in paths:
        assert tree.node(path) == model.node(path), path
        if len(path) < tree.depth:
            assert tree.children(path) == model.children(path), path
        else:
            assert tree.leaf_entries(path) == model.leaf_entries(path), path
    assert tree.stats == model.stats


def assert_read_only(tree):
    for write in (lambda: tree.put(KEYS[0], 1),
                  lambda: tree.put_digest(KEYS[0], 1),
                  lambda: tree.delete(KEYS[0])):
        with pytest.raises(RuntimeError):
            write()


@pytest.mark.parametrize("fanout,depth", SHAPES)
def test_numbered_tree_equals_the_path_tuple_tree(fanout, depth):
    paths = [path for level in range(depth + 1)
             for path in product(range(fanout), repeat=level)]
    # Every step reads every node twice over; keep the big shapes short.
    small = node_count(fanout, depth) <= 300
    ops = st.lists(op_strategy, max_size=12 if small else 5)

    @settings(max_examples=25 if small else 6, deadline=None)
    @given(ops, ops, ops, ops)
    def check(base_ops, overlay_ops, nested_ops, rebuild_ops):
        base, base_model = (DigestTree(fanout, depth),
                            reference.DigestTree(fanout, depth))
        for key in KEYS:
            assert base.path_for_key(key) == base_model.path_for_key(key)
        for op in base_ops:                                   # a plain tree
            assert apply_op(base, op) == apply_op(base_model, op)
            assert_same_view(base, base_model, paths)
        overlay, overlay_model = (OverlayTree(base),
                                  reference.OverlayTree(base_model))
        assert_read_only(base)
        assert_same_view(overlay, overlay_model, paths)
        for op in overlay_ops:                                # an overlay
            assert apply_op(overlay, op) == apply_op(overlay_model, op)
            assert_same_view(overlay, overlay_model, paths)
        nested, nested_model = (OverlayTree(overlay),
                                reference.OverlayTree(overlay_model))
        assert_read_only(overlay)
        for op in nested_ops:                       # an overlay of an overlay
            assert apply_op(nested, op) == apply_op(nested_model, op)
            assert_same_view(nested, nested_model, paths)
        # The layers beneath did not move, and did no work of their own
        # beyond what the reference's layers did.
        assert_same_view(overlay, overlay_model, paths)
        assert_same_view(base, base_model, paths)

        # A rebuild on a shared mirror swaps in a fresh, writable tree.
        shared = DigestMirror(fanout, depth, labels=("ns",))
        shared.rebuild("ns", {key: 0 for key in KEYS[:24]})
        view = shared.overlay()
        assert_read_only(shared.trees["ns"])
        mapping = {key: 0 for key in KEYS[:24]}
        rebuilt_model = reference.DigestTree(fanout, depth)
        for op in rebuild_ops:
            if op[0] == "delete":
                mapping.pop(op[1], None)
            elif op[0] == "put":
                mapping[op[1]] = op[2]
        for key, value in mapping.items():
            rebuilt_model.put(key, value)
        frozen_root = view.roots()["ns"]
        shared.rebuild("ns", mapping)
        assert_same_view(shared.trees["ns"], rebuilt_model, paths)
        assert shared.trees["ns"].put("late", 1) == rebuilt_model.put("late", 1)
        assert_same_view(shared.trees["ns"], rebuilt_model, paths)
        assert view.roots()["ns"] == frozen_root

    check()
