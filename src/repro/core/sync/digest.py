"""Merkle/rolling-digest trees over configuration namespaces.

Real Magma streams subscriberdb state with *digests*: the gateway sends a
compact fingerprint of its applied view, and the orchestrator only ships
the parts that differ.  This module provides the fingerprint half of that
protocol for the reproduction:

- :func:`canonical_bytes` — a deterministic serialization of config
  values (dataclasses, containers, primitives) so digests are identical
  across processes, runs, and ``PYTHONHASHSEED`` values.
- :class:`DigestTree` — a fixed-fanout digest tree over one namespace.
  Keys hash into ``fanout ** depth`` leaf buckets; each leaf keeps an
  XOR accumulator of per-entry digests (O(1) incremental ``put`` /
  ``delete``) plus the per-key entry digests needed to compute exact
  deltas; internal nodes hash their children and are cached lazily, so
  an unchanged namespace recomputes *nothing* — the memoization the
  check-in storm lives on.  A node's public and wire name is its path;
  inside, nodes are numbered in level order (DESIGN.md §6.11).
- :class:`OverlayTree` — a copy-on-write view over a shared base tree:
  only touched leaf buckets are copied.  Lets tens of thousands of
  simulated gateways with identical applied state share one mirror.
- :class:`DigestIndex` — per-namespace trees kept incrementally in sync
  with a :class:`~repro.core.orchestrator.config_store.ConfigStore` via
  its mutation-observer hook; trees are built on first use so stores
  that never serve digests pay nothing.

Collision stance: digests are 128-bit BLAKE2b truncations combined with
XOR at the leaves; equality is treated as content equality, which is the
same engineering bet real digest-sync systems make (a random collision is
~2^-64 per comparison, far below simulated-hardware failure rates).
"""

from __future__ import annotations

import itertools
import operator
from hashlib import blake2b
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...net.rpc import dataclass_fields
from ...obs import profiler as _profiler

#: Bytes per digest (128-bit truncated BLAKE2b).
DIGEST_BYTES = 16

#: Path of a tree node: one base-``fanout`` digit per level from the root.
NodePath = Tuple[int, ...]


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic, type-tagged serialization of a config value.

    Supports the value shapes the config store actually holds — plain
    scalars, containers, and (frozen) dataclasses like
    ``SubscriberProfile`` / ``PolicyRule``.  Anything else raises
    ``TypeError`` instead of silently hashing an address-bearing
    ``repr`` — a nondeterministic digest is worse than no digest.
    ``tests/test_sync_canonical_bytes.py`` holds the ``isinstance``
    ladder this replaced as the byte-for-byte oracle.
    """
    out = bytearray()
    _canonical_into(((b"", obj),), out)
    return bytes(out)


#: Exact type -> the rule that encodes it: for a built-in, the type
#: whose branch of :func:`_canonical_into` applies; for a dataclass, its
#: plan ``(header, encoded field names, values getter)`` — everything
#: about an instance's encoding that is the same for every instance.
#: :func:`_rule_for` adds a dataclass type the first time it is met;
#: nothing keyed by a *value* is ever kept.
_RULES: Dict[type, Any] = {kind: kind for kind in (
    str, bytes, type(None), bool, int, float, list, dict, set)}
_RULES[tuple] = list
_RULES[frozenset] = set

#: The prefix of every member of a sequence.
_NO_PREFIX = itertools.repeat(b"")


def _canonical_into(members: Iterable[Tuple[bytes, Any]],
                    out: bytearray) -> None:
    """Append each ``(prefix, value)`` member: the prefix bytes as they
    are (a dataclass field's encoded name; nothing for a sequence item
    or the top-level value), then the value's encoding.

    Taking members rather than one value is what makes an entry one
    pass: a dataclass costs one frame for all its fields, and a scalar
    field is encoded right here in the loop.
    """
    for prefix, obj in members:
        out += prefix
        try:
            rule = _RULES[type(obj)]
        except KeyError:
            rule = _rule_for(obj)
        if rule is str:
            data = obj.encode("utf-8")
            out += b"s%d:" % len(data)
            out += data
        elif rule is bytes:
            out += b"b%d:" % len(obj)
            out += obj
        elif obj is None:
            out += b"N"
        elif rule is bool:
            out += b"T" if obj else b"F"
        elif rule is int:
            out += b"i%d;" % obj
        elif rule is float:
            out += b"f%s;" % repr(obj).encode("ascii")
        elif rule is list:
            out += b"l%d:" % len(obj)
            _canonical_into(zip(_NO_PREFIX, obj), out)
        elif rule is dict:
            out += b"d%d:" % len(obj)
            for key in sorted(obj, key=_dict_sort_key):
                _canonical_into(((b"", key), (b"", obj[key])), out)
        elif rule is set:
            parts = sorted(map(canonical_bytes, obj))
            out += b"e%d:" % len(parts)
            out += b"".join(parts)
        else:
            header, names, values_of = rule
            out += header
            _canonical_into(zip(names, values_of(obj)), out)


def _rule_for(obj: Any) -> Any:
    """The rule for a value whose exact type :data:`_RULES` does not hold.

    The ``isinstance`` order is the rule set: an ``IntEnum`` is an int, a
    ``str`` subclass a string, a namedtuple a list, and a dataclass that
    extends a built-in is that built-in.  Only a dataclass type is
    remembered (its plan is derived from the class alone); subclasses of
    built-ins are resolved each time, as they always were.
    """
    for base in (int, float, str, bytes, list, tuple, dict, set, frozenset):
        if isinstance(obj, base):
            return _RULES[base]
    kind = type(obj)
    fields = dataclass_fields(kind)
    if fields is None:
        raise TypeError(
            f"cannot canonicalize {kind.__name__!r} for digesting; "
            "config values must be scalars, containers, or dataclasses")
    names, values_of = fields
    plan = _RULES[kind] = (
        b"D" + canonical_bytes(kind.__name__) + b"%d:" % len(names),
        tuple(map(canonical_bytes, names)), values_of)
    return plan


def _dict_sort_key(key: Any) -> Tuple[str, bytes]:
    return (type(key).__name__, canonical_bytes(key))


def _entry_digest(key: str, value: Any) -> int:
    entry = bytearray(b"entry:")
    entry += key.encode("utf-8")
    _canonical_into(((b"=", value),), entry)
    return int.from_bytes(
        blake2b(entry, digest_size=DIGEST_BYTES).digest(), "big")


def entry_digest(key: str, value: Any) -> int:
    """128-bit digest of one ``(key, value)`` entry.

    The wrapper is the self-profiler's hook point for digest hashing;
    with no active profiler it costs one global load and an ``is None``
    test on top of the hash itself.
    """
    prof = _profiler.ACTIVE
    if prof is None:
        return _entry_digest(key, value)
    prof.push("sync.digest_hash")
    try:
        return _entry_digest(key, value)
    finally:
        prof.pop()


def key_hash(key: str) -> int:
    """Stable 64-bit bucket hash of a key (independent of the value)."""
    return int.from_bytes(
        blake2b(key.encode("utf-8"), digest_size=8).digest(), "big")


#: One child digest as the bytes a parent hashes.
_digest_bytes = operator.methodcaller("to_bytes", DIGEST_BYTES, "big")


def _combine(children: List[int]) -> int:
    return int.from_bytes(
        blake2b(b"".join(map(_digest_bytes, children)),
                digest_size=DIGEST_BYTES).digest(), "big")


_SHARED_BASE_WRITE = ("digest tree is the base of an overlay and is "
                      "read-only; write to an overlay or rebuild a fresh tree")


class DigestTree:
    """Fixed-fanout digest tree over one namespace's ``{key: value}`` set.

    To callers and on the wire a node is a *path*: the root is ``()``, a
    node at level ``l`` a tuple of ``l`` base-``fanout`` digits, leaves
    sit at level ``depth``.  Inside, a node is its level-order *number*:
    root 0, the children of ``n`` at ``n * fanout + 1 ... n * fanout +
    fanout``, its parent ``(n - 1) // fanout``, leaf bucket ``i`` at
    ``_first_leaf + i`` where ``_first_leaf = (fanout**depth - 1) //
    (fanout - 1)`` counts the internal nodes.  Siblings are consecutive
    numbers - just above the leaves, one slice of the leaf accumulators -
    and every internal table is keyed by an int.  :meth:`_number`
    converts and validates a path once, where it enters.

    A key's bucket is ``key_hash(key) % leaf_count`` - its leaf path is
    that number's ``depth`` base-``fanout`` digits - so the same key
    lands in the same leaf on every replica: divergence between two trees
    is always a key-set/value difference, never a placement difference.
    """

    __slots__ = ("fanout", "depth", "leaf_count", "_first_leaf", "_leaf_acc",
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
        self._first_leaf = (self.leaf_count - 1) // (fanout - 1)
        self._alloc_leaves()
        # Internal node number -> digest; a write pops its leaf's ancestors.
        self._node_cache: Dict[int, int] = {}
        self._count = 0
        # Set once an OverlayTree reads through to this tree: overlays
        # trust the base's digests and len(), so it is frozen from then on.
        self._shared = False
        self.stats = {"puts": 0, "deletes": 0, "node_recomputes": 0}

    # -- paths <-> numbers ---------------------------------------------------------

    def path_for_key(self, key: str) -> NodePath:
        """The leaf path (``depth`` digits) that ``key`` buckets into."""
        index = key_hash(key) % self.leaf_count
        digits = []
        for _ in range(self.depth):
            index, digit = divmod(index, self.fanout)
            digits.append(digit)
        return tuple(reversed(digits))

    def _number(self, path: NodePath) -> int:
        """The number of the node at ``path``.

        Paths arrive from outside (a gateway's reconcile request), and a
        digit out of range would silently name a cousin, so each digit is
        checked here and nowhere else.
        """
        fanout, first_leaf = self.fanout, self._first_leaf
        number = 0
        for digit in path:
            # A leaf has no children: the path is longer than the tree is deep.
            if number >= first_leaf or not 0 <= digit < fanout:
                raise ValueError(
                    f"no node at path {tuple(path)} in a digest tree of "
                    f"fanout {fanout} and depth {self.depth}")
            number = number * fanout + digit + 1
        return number

    # -- mutation ------------------------------------------------------------------

    def put(self, key: str, value: Any) -> bool:
        """Insert/update one entry; returns True if the digest changed."""
        return self.put_digest(key, entry_digest(key, value))

    def put_digest(self, key: str, digest: int) -> bool:
        """Insert/update with a precomputed entry digest (mirror rebuilds)."""
        if self._shared:
            raise RuntimeError(_SHARED_BASE_WRITE)
        index = key_hash(key) % self.leaf_count
        entries = self._writable_leaf(index)
        old = entries.get(key)
        if old == digest:
            return False
        entries[key] = digest
        if old is None:
            self._count += 1
            self._leaf_acc[index] ^= digest
        else:
            self._leaf_acc[index] ^= digest ^ old
        self._invalidate(index)
        self.stats["puts"] += 1
        return True

    def delete(self, key: str) -> bool:
        """Remove one entry; returns True if it was present."""
        if self._shared:
            raise RuntimeError(_SHARED_BASE_WRITE)
        index = key_hash(key) % self.leaf_count
        view = self._leaf_entry_map(index)
        if not view or key not in view:
            return False
        old = self._writable_leaf(index).pop(key)   # may copy the bucket first
        self._leaf_acc[index] ^= old
        self._count -= 1
        self._invalidate(index)
        self.stats["deletes"] += 1
        return True

    def _invalidate(self, index: int) -> None:
        """Forget the cached digest of every ancestor of leaf ``index``."""
        cache, fanout = self._node_cache, self.fanout
        number = self._first_leaf + index
        while number:
            number = (number - 1) // fanout
            cache.pop(number, None)

    # -- leaf storage hooks (OverlayTree overrides these) ----------------------------

    def _alloc_leaves(self) -> None:
        self._leaf_acc: List[int] = [0] * self.leaf_count
        # Per-leaf {key: entry_digest}; allocated lazily per bucket.
        self._leaf_entries: List[Optional[Dict[str, int]]] = \
            [None] * self.leaf_count

    def _leaf_entry_map(self, index: int) -> Optional[Dict[str, int]]:
        return self._leaf_entries[index]

    def _writable_leaf(self, index: int) -> Dict[str, int]:
        entries = self._leaf_entries[index]
        if entries is None:
            entries = {}
            self._leaf_entries[index] = entries
        return entries

    def _leaf_digests(self, start: int, stop: int) -> List[int]:
        """The accumulators of leaf buckets ``start .. stop - 1`` (a new list)."""
        return self._leaf_acc[start:stop]

    # -- digests -------------------------------------------------------------------

    def _child_digests(self, number: int) -> List[int]:
        """Digests of the ``fanout`` children of internal node ``number``."""
        first = number * self.fanout + 1
        bucket = first - self._first_leaf
        if bucket >= 0:
            return self._leaf_digests(bucket, bucket + self.fanout)
        return [self._digest(child)
                for child in range(first, first + self.fanout)]

    def _digest(self, number: int) -> int:
        """Digest of node ``number`` (leaf accumulator or cached hash over
        children - only dirty subtrees recompute)."""
        cache = self._node_cache
        if number in cache:
            return cache[number]
        bucket = number - self._first_leaf
        if bucket >= 0:
            return self._leaf_digests(bucket, bucket + 1)[0]
        digest = cache[number] = _combine(self._child_digests(number))
        self.stats["node_recomputes"] += 1
        return digest

    def node(self, path: NodePath) -> int:
        """Digest of the node at ``path``."""
        return self._digest(self._number(path))

    def root(self) -> int:
        return self._digest(0)

    def children(self, path: NodePath) -> Dict[NodePath, int]:
        """Digests of the children of an internal node, keyed by path."""
        number = self._number(path)
        if number >= self._first_leaf:
            raise ValueError(f"node {tuple(path)} is a leaf; it has no children")
        path = tuple(path)
        return {path + (digit,): digest for digit, digest
                in enumerate(self._child_digests(number))}

    def leaf_entries(self, path: NodePath) -> Dict[str, int]:
        """``{key: entry_digest}`` for a leaf bucket (copy; wire-safe)."""
        bucket = self._number(path) - self._first_leaf
        if bucket < 0:
            raise ValueError(f"{tuple(path)} is not a leaf path")
        entries = self._leaf_entry_map(bucket)
        return dict(entries) if entries else {}

    def __len__(self) -> int:
        return self._count


#: An untouched overlay's (shared, empty) set of overlaid internal nodes.
_NOTHING_OVERLAID: frozenset = frozenset()


class OverlayTree(DigestTree):
    """Copy-on-write view over a shared base :class:`DigestTree`.

    Reads fall through to the base until a leaf bucket is written, at
    which point only that bucket (accumulator + entry map) is copied
    into the overlay.  A fleet of simulated gateways whose applied
    config is identical can then share one base mirror and each pay
    only for the buckets their own reconciliation touches.

    Copying a bucket also records its ancestors' numbers, so "is anything
    under this node overlaid?" is one set probe and an untouched
    overlay answers ``root()`` from the base's cache without looking at
    a single leaf.  That shortcut (and ``len()``) trusts the base, so
    creating an overlay freezes its base: writes to it raise.  The
    base may itself be an overlay.
    """

    __slots__ = ("_base", "_overlaid")

    def __init__(self, base: DigestTree):
        super().__init__(base.fanout, base.depth)
        self._base = base
        self._count = len(base)
        # Internal nodes with a copied bucket beneath them; a real set
        # replaces the shared empty one on the first copy.
        self._overlaid = _NOTHING_OVERLAID
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

    def _writable_leaf(self, index: int) -> Dict[str, int]:
        entries = self._leaf_entries.get(index)
        if entries is None:
            base_entries = self._base._leaf_entry_map(index)
            entries = dict(base_entries) if base_entries else {}
            self._leaf_entries[index] = entries
            self._leaf_acc[index] = \
                self._base._leaf_digests(index, index + 1)[0]
            if not self._overlaid:
                self._overlaid = set()
            number = self._first_leaf + index
            while number:
                number = (number - 1) // self.fanout
                self._overlaid.add(number)
        return entries

    def _leaf_digests(self, start: int, stop: int) -> List[int]:
        digests = self._base._leaf_digests(start, stop)
        copied = self._leaf_acc
        for index in range(start, stop):
            if index in copied:
                digests[index - start] = copied[index]
        return digests

    def _digest(self, number: int) -> int:
        if number < self._first_leaf and number not in self._overlaid:
            return self._base._digest(number)
        return super()._digest(number)


class DigestIndex:
    """Per-namespace digest trees kept in sync with a config store.

    Subscribes to the store's mutation observer at construction; a
    namespace's tree is built from store contents on first use and
    incrementally maintained afterwards, so the index costs nothing for
    namespaces (or stores) that never serve digest sync.
    """

    def __init__(self, store, fanout: int = 16, depth: int = 2):
        self.store = store
        self.fanout = fanout
        self.depth = depth
        self._trees: Dict[str, DigestTree] = {}
        self.stats = {"trees_built": 0, "incremental_updates": 0}
        store.add_observer(self._on_mutation)

    def _on_mutation(self, entry) -> None:
        tree = self._trees.get(entry.key[0])
        if tree is None:
            return  # not built yet; first use will fold this mutation in
        if entry.op == "put":
            tree.put(entry.key[1], entry.value)
        else:
            tree.delete(entry.key[1])
        self.stats["incremental_updates"] += 1

    def tree(self, namespace: str) -> DigestTree:
        tree = self._trees.get(namespace)
        if tree is None:
            tree = DigestTree(self.fanout, self.depth)
            for key, value in self.store.namespace(namespace).items():
                tree.put(key, value)
            self._trees[namespace] = tree
            self.stats["trees_built"] += 1
        return tree

    def root(self, namespace: str) -> int:
        return self.tree(namespace).root()
