"""Digest-based desired-state reconciliation (the check-in protocol).

The wire protocol mirrors real Magma's subscriberdb digest streaming
(and the notify+delta directory-sync shape of enterprise replication
systems): steady-state check-ins carry O(namespaces) root digests, and a
divergence is narrowed by walking the digest tree, shipping only the
divergent leaf buckets as exact key deltas with tombstones.

Three pieces, all sans-io so the same engine runs over simulated RPC
(``magmad``), direct calls (benchmarks), and tests:

- :class:`DigestMirror` — the gateway's digest trees over its *applied*
  configuration, rebuilt from full bundles and updated by deltas.
- :class:`ReconcileServer` — the orchestrator side: compares roots at
  check-in, expands requested tree nodes, and computes per-leaf deltas
  from the gateway's per-key entry digests.
- :class:`ReconcileClient` — the gateway-side walk as a request/response
  state machine: ``start()`` consumes the check-in's sync info and
  returns the first follow-up request (or None); ``feed()`` consumes
  each response and returns the next request until converged.  It
  compares a sibling set at a time: what a response carries per parent
  against one ``tree.children(parent)`` of the mirror.

Convergence takes at most ``depth`` follow-up rounds: each round either
descends one tree level or applies leaf deltas, and applying a leaf
delta makes that leaf digest-equal by construction.  A check-in that
diverges mid-walk (a concurrent northbound write) simply converges on
the next check-in — the protocol inherits the paper's "one successful
sync heals everything" property at leaf granularity.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ...record import record
from .digest import DigestTree, NodePath, OverlayTree

#: Wire labels for the config namespaces a gateway syncs, in push order.
SYNC_LABELS: Tuple[str, ...] = ("subscribers", "policies", "ran")


class DigestMirror:
    """Digest trees over the configuration a gateway has applied.

    The mirror tracks *desired state as applied* — it is rebuilt from
    full bundles and advanced by reconcile deltas, not derived from the
    live stores, so runtime-state writes (e.g. the MME's federated
    profile cache fills) never perturb the sync fingerprint.
    """

    def __init__(self, fanout: int = 16, depth: int = 2,
                 labels: Tuple[str, ...] = SYNC_LABELS,
                 base: Optional["DigestMirror"] = None):
        self.fanout = fanout
        self.depth = depth
        self.labels = labels
        if base is not None:
            self.trees = {label: OverlayTree(base.trees[label])
                          for label in labels}
        else:
            self.trees = {label: DigestTree(fanout, depth)
                          for label in labels}

    def overlay(self) -> "DigestMirror":
        """A copy-on-write view sharing this mirror's current state."""
        return DigestMirror(self.fanout, self.depth, self.labels, base=self)

    def rebuild(self, label: str, mapping: Dict[str, Any]) -> None:
        """Reset one namespace's tree from a full desired-state bundle."""
        tree = DigestTree(self.fanout, self.depth)
        for key, value in mapping.items():
            tree.put(key, value)
        self.trees[label] = tree

    def apply_delta(self, label: str, upserts: Dict[str, Any],
                    deletes: List[str]) -> None:
        tree = self.trees[label]
        for key in deletes:
            tree.delete(key)
        for key, value in upserts.items():
            tree.put(key, value)

    def roots(self) -> Dict[str, int]:
        return {label: tree.root() for label, tree in self.trees.items()}


class ReconcileServer:
    """Orchestrator-side digest comparison and delta computation.

    ``scope`` maps a wire label (the namespace's own name) + network id
    to the store namespace (multi-tenant scoping lives in statesync; this
    engine only needs the mapping function).
    """

    def __init__(self, digests, store,
                 scope: Callable[[str, str], str]):
        self.digests = digests
        self.store = store
        self.scope = scope

    def roots(self, network_id: str) -> Dict[str, int]:
        return {label: self.digests.root(self.scope(label, network_id))
                for label in SYNC_LABELS}

    def sync_info(self, network_id: str,
                  gateway_roots: Dict[str, int]) -> Dict[str, Any]:
        """Per-label sync openers for namespaces whose roots diverge.

        Matching namespaces are elided entirely; a divergent one opens
        with the orchestrator's root plus the children of the root, so
        the gateway's first follow-up already starts one level down.
        """
        out: Dict[str, Any] = {}
        for label in SYNC_LABELS:
            tree = self.digests.tree(self.scope(label, network_id))
            root = tree.root()
            if gateway_roots.get(label) != root:
                out[label] = {"root": root, "children": tree.children(())}
        return out

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One reconcile round: expand internal nodes, emit leaf deltas."""
        network_id = request["network_id"]
        nodes: Dict[str, Dict[NodePath, Dict[NodePath, int]]] = {}
        deltas: Dict[str, Dict[NodePath, Dict[str, Any]]] = {}
        for label, paths in request.get("ns_paths", {}).items():
            tree = self.digests.tree(self.scope(label, network_id))
            nodes[label] = {tuple(path): tree.children(path)
                            for path in paths}
        for label, leaves in request.get("ns_leaves", {}).items():
            namespace = self.scope(label, network_id)
            tree = self.digests.tree(namespace)
            label_deltas = deltas.setdefault(label, {})
            for path, gateway_entries in leaves.items():
                label_deltas[tuple(path)] = self._leaf_delta(
                    tree, namespace, tuple(path), gateway_entries)
        return {"nodes": nodes, "deltas": deltas,
                "roots": self.roots(network_id)}

    def _leaf_delta(self, tree: DigestTree, namespace: str, path: NodePath,
                    gateway_entries: Dict[str, int]) -> Dict[str, Any]:
        """Exact delta converging one gateway leaf onto the orchestrator's.

        ``set`` carries adds and updates (keys the gateway lacks or holds
        with a different digest); ``delete`` carries tombstones for keys
        the gateway holds that no longer exist here.
        """
        mine = tree.leaf_entries(path)
        upserts = {key: self.store.get(namespace, key)
                   for key, digest in mine.items()
                   if gateway_entries.get(key) != digest}
        tombstones = [key for key in gateway_entries if key not in mine]
        return {"set": upserts, "delete": tombstones}


@record
class ReconcileResult:
    """Outcome of one gateway reconcile conversation."""

    converged: bool
    rounds: int = 0
    config_version: int = 0
    upserts: int = 0
    tombstones: int = 0
    leaves_shipped: int = 0
    labels_synced: int = 0


class ReconcileClient:
    """Gateway-side digest walk as a sans-io request/response machine.

    Usage::

        client = ReconcileClient(mirror, apply_delta, network_id, gw_id)
        request = client.start(checkin_response)
        while request is not None:
            response = <send statesync/reconcile request, await response>
            request = client.feed(response)
        result = client.result()

    ``apply_delta(label, upserts, deletes, version)`` must apply the
    delta to the real stores; the client updates the mirror itself.
    """

    def __init__(self, mirror: DigestMirror,
                 apply_delta: Callable[[str, Dict[str, Any], List[str], int],
                                       None],
                 network_id: str, gateway_id: str):
        self.mirror = mirror
        self.apply_delta = apply_delta
        self.network_id = network_id
        self.gateway_id = gateway_id
        # Each round either descends one level or ships leaf deltas, so
        # depth rounds always suffice; +1 tolerates a root opener that
        # was already at leaf level (depth-1 trees).
        self.max_rounds = mirror.depth + 1
        self._rounds = 0
        self._version = 0
        self._target_roots: Dict[str, int] = {}
        self._upserts = 0
        self._tombstones = 0
        self._leaves = 0
        self._synced_labels = 0

    def start(self, checkin_response: Dict[str, Any]) -> \
            Optional[Dict[str, Any]]:
        """Consume the check-in response; return the first follow-up
        request, or None when no walk is needed."""
        sync = checkin_response.get("sync")
        self._version = checkin_response.get("config_version", 0)
        if not sync:
            return None
        self._synced_labels = len(sync)
        self._target_roots = {label: info["root"]
                              for label, info in sync.items()}
        # The opener's children are the root's sibling set.
        return self._next_request({label: {(): info["children"]}
                                   for label, info in sync.items()})

    def feed(self, response: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Consume a reconcile response; return the next request or None."""
        self._version = response.get("config_version", self._version)
        self._target_roots = response.get("roots", self._target_roots)
        for label, label_deltas in response.get("deltas", {}).items():
            for _path, delta in label_deltas.items():
                upserts = delta.get("set", {})
                deletes = delta.get("delete", [])
                self.apply_delta(label, upserts, deletes, self._version)
                self.mirror.apply_delta(label, upserts, deletes)
                self._upserts += len(upserts)
                self._tombstones += len(deletes)
                self._leaves += 1
        if self._rounds >= self.max_rounds:
            return None
        return self._next_request(response.get("nodes", {}))

    def _next_request(
            self, pending: Dict[str, Dict[NodePath, Dict[NodePath, int]]]
    ) -> Optional[Dict[str, Any]]:
        """Compare ``{label: {parent: its children's digests}}`` with the
        mirror a sibling set at a time; ask about the children that differ
        (parent-major, in child order)."""
        ns_paths: Dict[str, List[NodePath]] = {}
        ns_leaves: Dict[str, Dict[NodePath, Dict[str, int]]] = {}
        for label, by_parent in pending.items():
            tree = self.mirror.trees[label]
            for parent, theirs in by_parent.items():
                mine = tree.children(parent)
                differing = [path for path, digest in theirs.items()
                             if mine.get(path) != digest]
                if not differing:
                    continue
                if len(parent) + 1 < tree.depth:
                    ns_paths.setdefault(label, []).extend(differing)
                else:
                    leaves = ns_leaves.setdefault(label, {})
                    for path in differing:
                        leaves[path] = tree.leaf_entries(path)
        if not ns_paths and not ns_leaves:
            return None
        self._rounds += 1
        return {"gateway_id": self.gateway_id,
                "network_id": self.network_id,
                "ns_paths": ns_paths,
                "ns_leaves": ns_leaves}

    def result(self) -> ReconcileResult:
        converged = all(
            self.mirror.trees[label].root() == root
            for label, root in self._target_roots.items()) \
            if self._target_roots else True
        return ReconcileResult(
            converged=converged,
            rounds=self._rounds,
            config_version=self._version,
            upserts=self._upserts,
            tombstones=self._tombstones,
            leaves_shipped=self._leaves,
            labels_synced=self._synced_labels)
