"""Reference digest tree: the retired path-tuple ``DigestTree`` / ``OverlayTree``.

``repro.core.sync.digest`` used to name a node by its path - a tuple of
base-``fanout`` digits from the root - everywhere: the node cache and the
overlay's "something beneath is copied" set were keyed by tuples, a leaf
digest was reached through ``_leaf_index(path)``, and ``_combine`` fed the
hash one child at a time.  The product now numbers nodes in level order
and keeps paths only at its boundary (DESIGN.md §6.11).  The two classes
are kept here verbatim, out of the product, as the model the numbered
tree is compared against operation by operation
(``test_sync_digest_oracle.py``): same placement, same digests, same
recompute counts.

Known defect, kept on purpose because it is what the product fixed: a
path digit outside ``range(fanout)`` is not rejected, so ``(0, 17)`` reads
bucket ``(1, 1)``; the comparison only ever asks for valid paths.
"""

from hashlib import blake2b
from typing import Any, Dict, Iterable, List, Optional

from repro.core.sync.digest import (
    DIGEST_BYTES,
    NodePath,
    entry_digest,
    key_hash,
)


def _combine(children: Iterable[int]) -> int:
    h = blake2b(digest_size=DIGEST_BYTES)
    for digest in children:
        h.update(digest.to_bytes(DIGEST_BYTES, "big"))
    return int.from_bytes(h.digest(), "big")


_SHARED_BASE_WRITE = ("digest tree is the base of an overlay and is "
                      "read-only; write to an overlay or rebuild a fresh tree")


class DigestTree:
    """Fixed-fanout digest tree over one namespace's ``{key: value}`` set.

    Node addressing: the root is the empty path ``()``; a node at level
    ``l`` is a tuple of ``l`` base-``fanout`` digits.  Leaves sit at
    level ``depth``.  A key's leaf is the first ``depth`` digits of its
    bucket hash, so the same key lands in the same leaf on every replica
    — divergence between two trees is always a key-set/value difference,
    never a placement difference.
    """

    __slots__ = ("fanout", "depth", "leaf_count", "_leaf_acc",
                 "_leaf_entries", "_node_cache", "_count", "_shared",
                 "stats")

    def __init__(self, fanout: int = 16, depth: int = 2):
        if fanout < 2:
            raise ValueError(f"fanout must be >= 2: {fanout}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1: {depth}")
        self.fanout = fanout
        self.depth = depth
        self.leaf_count = fanout ** depth
        self._alloc_leaves()
        self._node_cache: Dict[NodePath, int] = {}
        self._count = 0
        # Set once an OverlayTree reads through to this tree: overlays
        # trust the base's digests and len(), so it is frozen from then on.
        self._shared = False
        self.stats = {"puts": 0, "deletes": 0, "node_recomputes": 0}

    # -- key placement -------------------------------------------------------------

    def path_for_key(self, key: str) -> NodePath:
        """The leaf path (``depth`` digits) that ``key`` buckets into."""
        h = key_hash(key)
        digits = []
        for _ in range(self.depth):
            digits.append(h % self.fanout)
            h //= self.fanout
        return tuple(reversed(digits))

    def _leaf_index(self, path: NodePath) -> int:
        index = 0
        for digit in path:
            index = index * self.fanout + digit
        return index

    def is_leaf(self, path: NodePath) -> bool:
        return len(path) == self.depth

    # -- mutation ------------------------------------------------------------------

    def put(self, key: str, value: Any) -> bool:
        """Insert/update one entry; returns True if the digest changed."""
        return self.put_digest(key, entry_digest(key, value))

    def put_digest(self, key: str, digest: int) -> bool:
        """Insert/update with a precomputed entry digest (mirror rebuilds)."""
        if self._shared:
            raise RuntimeError(_SHARED_BASE_WRITE)
        path = self.path_for_key(key)
        index = self._leaf_index(path)
        entries = self._writable_leaf(index, path)
        old = entries.get(key)
        if old == digest:
            return False
        entries[key] = digest
        acc = self._leaf_acc[index] ^ digest
        if old is not None:
            acc ^= old
        else:
            self._count += 1
        self._set_leaf_acc(index, acc)
        self._invalidate(path)
        self.stats["puts"] += 1
        return True

    def delete(self, key: str) -> bool:
        """Remove one entry; returns True if it was present."""
        if self._shared:
            raise RuntimeError(_SHARED_BASE_WRITE)
        path = self.path_for_key(key)
        index = self._leaf_index(path)
        view = self._leaf_entry_map(index)
        if not view or key not in view:
            return False
        old = self._writable_leaf(index, path).pop(key)
        self._set_leaf_acc(index, self._leaf_acc[index] ^ old)
        self._count -= 1
        self._invalidate(path)
        self.stats["deletes"] += 1
        return True

    def _invalidate(self, leaf_path: NodePath) -> None:
        cache = self._node_cache
        for level in range(self.depth):
            cache.pop(leaf_path[:level], None)

    # -- leaf storage hooks (OverlayTree overrides these) ----------------------------

    def _alloc_leaves(self) -> None:
        self._leaf_acc: List[int] = [0] * self.leaf_count
        # Per-leaf {key: entry_digest}; allocated lazily per bucket.
        self._leaf_entries: List[Optional[Dict[str, int]]] = \
            [None] * self.leaf_count

    def _leaf_entry_map(self, index: int) -> Optional[Dict[str, int]]:
        return self._leaf_entries[index]

    def _writable_leaf(self, index: int, path: NodePath) -> Dict[str, int]:
        entries = self._leaf_entries[index]
        if entries is None:
            entries = {}
            self._leaf_entries[index] = entries
        return entries

    def _set_leaf_acc(self, index: int, acc: int) -> None:
        self._leaf_acc[index] = acc

    def _leaf_digest(self, index: int) -> int:
        return self._leaf_acc[index]

    # -- digests -------------------------------------------------------------------

    def node(self, path: NodePath) -> int:
        """Digest of the node at ``path`` (leaf accumulator or cached
        hash over children — only dirty subtrees recompute)."""
        path = tuple(path)
        if len(path) == self.depth:
            return self._leaf_digest(self._leaf_index(path))
        if len(path) > self.depth:
            raise ValueError(f"path {path} deeper than tree depth {self.depth}")
        cached = self._node_cache.get(path)
        if cached is not None:
            return cached
        digest = _combine(self.node(path + (i,)) for i in range(self.fanout))
        self._node_cache[path] = digest
        self.stats["node_recomputes"] += 1
        return digest

    def root(self) -> int:
        return self.node(())

    def children(self, path: NodePath) -> Dict[NodePath, int]:
        """Digests of the children of an internal node, keyed by path."""
        path = tuple(path)
        if len(path) >= self.depth:
            raise ValueError(f"node {path} is a leaf; it has no children")
        return {path + (i,): self.node(path + (i,))
                for i in range(self.fanout)}

    def leaf_entries(self, path: NodePath) -> Dict[str, int]:
        """``{key: entry_digest}`` for a leaf bucket (copy; wire-safe)."""
        path = tuple(path)
        if len(path) != self.depth:
            raise ValueError(f"{path} is not a leaf path")
        entries = self._leaf_entry_map(self._leaf_index(path))
        return dict(entries) if entries else {}

    def __len__(self) -> int:
        return self._count


#: An untouched overlay's (shared, empty) set of overlaid internal paths.
_NO_PATHS: frozenset = frozenset()


class OverlayTree(DigestTree):
    """Copy-on-write view over a shared base :class:`DigestTree`.

    Reads fall through to the base until a leaf bucket is written, at
    which point only that bucket (accumulator + entry map) is copied
    into the overlay.  A fleet of simulated gateways whose applied
    config is identical can then share one base mirror and each pay
    only for the buckets their own reconciliation touches.

    Copying a bucket also records its ancestors' paths, so "is anything
    under this node overlaid?" is one set probe and an untouched
    overlay answers ``root()`` from the base's cache without looking at
    a single leaf.  That shortcut (and ``len()``) trusts the base, so
    creating an overlay freezes its base: writes to it raise.  The
    base may itself be an overlay.
    """

    __slots__ = ("_base", "_overlaid_paths")

    def __init__(self, base: DigestTree):
        super().__init__(base.fanout, base.depth)
        self._base = base
        self._count = len(base)
        # Internal paths with a copied bucket beneath them; a real set
        # replaces the shared empty one on the first copy.
        self._overlaid_paths = _NO_PATHS
        base._shared = True

    def _alloc_leaves(self) -> None:
        # Sparse where the base is dense: only copied buckets, by leaf index.
        self._leaf_acc: Dict[int, int] = {}
        self._leaf_entries: Dict[int, Dict[str, int]] = {}

    def _leaf_entry_map(self, index: int) -> Optional[Dict[str, int]]:
        entries = self._leaf_entries.get(index)
        if entries is not None:
            return entries
        return self._base._leaf_entry_map(index)

    def _writable_leaf(self, index: int, path: NodePath) -> Dict[str, int]:
        entries = self._leaf_entries.get(index)
        if entries is None:
            base_entries = self._base._leaf_entry_map(index)
            entries = dict(base_entries) if base_entries else {}
            self._leaf_entries[index] = entries
            self._leaf_acc[index] = self._base._leaf_digest(index)
            if not self._overlaid_paths:
                self._overlaid_paths = set()
            self._overlaid_paths.update(
                path[:level] for level in range(self.depth))
        return entries

    def _leaf_digest(self, index: int) -> int:
        acc = self._leaf_acc.get(index)
        if acc is not None:
            return acc
        return self._base._leaf_digest(index)

    def node(self, path: NodePath) -> int:
        path = tuple(path)
        if len(path) < self.depth and path not in self._overlaid_paths:
            return self._base.node(path)
        return super().node(path)
