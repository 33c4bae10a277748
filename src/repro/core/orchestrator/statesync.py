"""State synchronization service: the orchestrator's side of check-ins.

Implements the desired-state push of §3.4: each gateway check-in carries
the gateway's applied config version; when stale, the response carries
the current configuration, and losing any number of pushes never
desynchronizes a gateway - the next successful check-in converges it.

Two transfer paths, selected per check-in:

- **Full bundle** (the original path, and the ``digest_sync=False``
  escape hatch): the response carries the *entire* network bundle.
- **Digest sync** (default): check-ins carry per-namespace digest roots;
  matching namespaces are elided and divergent ones are narrowed by a
  digest-tree walk (``statesync/reconcile``) that ships only divergent
  leaf-bucket deltas with tombstones - real Magma's subscriberdb digest
  streaming.  A gateway that never sends roots (older client, direct
  caller) transparently gets the full-bundle path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ...net.rpc import payload_bytes
from ...obs.tracing import tracer_of
from ...sim.kernel import Simulator
from ...sim.monitor import Monitor
from ..sync import DigestIndex, ReconcileServer
from .config_store import ConfigStore
from .metricsd import Metricsd

NS_SUBSCRIBERS = "subscribers"
NS_POLICIES = "policies"
NS_RAN = "ran"
NS_GATEWAYS = "gateways"
DEFAULT_NETWORK = "default"

#: Retained samples per wire-bytes series (scalar aggregates stay exact).
WIRE_SERIES_SAMPLES = 4096
#: handler kind -> its (rx, tx) wire-bytes series names.
_WIRE_SERIES = {kind: (f"sync.{kind}.rx_bytes", f"sync.{kind}.tx_bytes")
                for kind in ("checkin", "reconcile")}
#: A response that carries no bundle is charged the one-byte ``None``.
_NO_CONFIG_BYTES = payload_bytes(None)


def scoped(namespace: str, network_id: str) -> str:
    """Multi-tenant scoping: each logical *network* gets its own
    subscriber/policy/RAN namespaces (the §6 network-virtualization
    direction).  The default network keeps the bare namespace so
    single-network deployments stay simple."""
    if network_id == DEFAULT_NETWORK:
        return namespace
    return f"{namespace}@{network_id}"


@dataclass
class GatewayState:
    gateway_id: str
    first_seen: float
    last_checkin: float
    config_version: int = 0
    checkins: int = 0
    status: Dict[str, Any] = field(default_factory=dict)
    network_id: str = DEFAULT_NETWORK
    # Highest metrics-backlog seq ingested from this gateway; the ack that
    # makes headless back-fill duplicate-free.
    last_metrics_seq: int = 0


class StateSync:
    """Tracks gateway liveness and serves desired-state config sync."""

    def __init__(self, sim: Simulator, store: ConfigStore,
                 metricsd: Optional[Metricsd] = None,
                 digest_sync: bool = True,
                 digests: Optional[DigestIndex] = None,
                 monitor: Optional[Monitor] = None,
                 convergence: Optional["ConvergenceTracker"] = None):
        self.sim = sim
        self.store = store
        self.metricsd = metricsd
        self.monitor = monitor
        # Shared publish->all-applied lag tracker (one per orchestrator,
        # shared across shards); fed on every check-in.
        self.convergence = convergence
        # digest_sync=False keeps the pre-digest bundle protocol, for A/B
        # runs against it.
        self.digest_sync = digest_sync
        self.digests: Optional[DigestIndex] = None
        self.reconciler: Optional[ReconcileServer] = None
        if digest_sync:
            self.digests = digests if digests is not None \
                else DigestIndex(store)
            self.reconciler = ReconcileServer(self.digests, store, scoped)
        self._gateways: Dict[str, GatewayState] = {}
        # Check-in recency order (oldest first): each check-in moves the
        # gateway to the end, so offline_gateways() scans only the stale
        # prefix instead of every registered gateway.
        self._by_recency: "OrderedDict[str, GatewayState]" = OrderedDict()
        # network -> applied config version -> gateway ids: stale_gateways()
        # reads the few stale buckets instead of walking the fleet (in
        # steady state every gateway sits in one converged bucket).
        self._by_applied: Dict[str, Dict[int, Set[str]]] = {}
        # network -> (store version, per-namespace versions): recomputing
        # the namespace-version tuple is 3 dict probes + allocation per
        # check-in; at 50k-gateway storms it shows up, and it only changes
        # when the store version moves.
        self._ns_versions_memo: Dict[str, Tuple[int, tuple]] = {}
        # network -> (per-namespace versions, bundle): the bundle is reused
        # until one of the *network's own* namespaces changes, so a
        # thousand-gateway check-in storm (or churn in another tenant's
        # namespaces) never rebuilds an identical bundle.
        self._bundle_cache: Dict[str, tuple] = {}
        # network -> (per-namespace versions, payload bytes): sizing the
        # bundle is O(bundle), so it is cached exactly like the bundle.
        self._bundle_bytes: Dict[str, Tuple[tuple, int]] = {}
        self.stats = {"checkins": 0, "config_pushes": 0,
                      "bundle_rebuilds": 0, "bundle_cache_hits": 0,
                      "digest_syncs": 0, "digest_elisions": 0,
                      "reconcile_requests": 0, "reconcile_upserts": 0,
                      "reconcile_tombstones": 0,
                      "rx_bytes": 0, "tx_bytes": 0}

    # -- the checkin handler (registered as statesync/checkin) ---------------------

    def handle_checkin(self, request: Dict[str, Any]) -> Dict[str, Any]:
        gateway_id = request["gateway_id"]
        now = self.sim.now
        state = self._gateways.get(gateway_id)
        if state is None:
            state = GatewayState(gateway_id=gateway_id, first_seen=now,
                                 last_checkin=now)
            self._gateways[gateway_id] = state
        else:
            self._applied_bucket(state).discard(gateway_id)
        state.last_checkin = now
        state.checkins += 1
        state.config_version = request.get("config_version", 0)
        state.status = request.get("status", {})
        state.network_id = request.get("network_id", DEFAULT_NETWORK)
        self._by_recency[gateway_id] = state
        self._by_recency.move_to_end(gateway_id)
        self._applied_bucket(state).add(gateway_id)
        self.stats["checkins"] += 1
        if self.convergence is not None:
            self.convergence.note_applied(state.network_id, gateway_id,
                                          state.config_version)
        span = tracer_of(self.sim).child("statesync.checkin",
                                         component="statesync",
                                         tags={"gateway_id": gateway_id})
        response: Dict[str, Any] = {"config_version": self.store.version}
        backlog = request.get("metrics_backlog")
        if backlog is not None:
            # Seq-acked back-fill: samples buffered during a headless gap
            # are ingested at their *capture* time; anything at or below the
            # last acked seq is a redelivery and is skipped.  The ack moves
            # even with no metricsd attached so the gateway's buffer drains.
            for entry in backlog:
                seq = entry["seq"]
                if seq <= state.last_metrics_seq:
                    continue
                if self.metricsd is not None:
                    self.metricsd.ingest_bundle(
                        entry["metrics"], entry["time"],
                        labels={"gateway_id": gateway_id})
                    # Latency distributions ride next to the scalar bundle:
                    # {series: [[time, value, trace_id|None], ...]}.  Each
                    # row lands at its capture time, carrying its exemplar
                    # trace id through to metricsd.
                    for name, rows in (entry.get("latency") or {}).items():
                        for row in rows:
                            self.metricsd.ingest(
                                name, row[1], row[0],
                                labels={"gateway_id": gateway_id},
                                trace_id=row[2] if len(row) > 2 else None)
                state.last_metrics_seq = seq
            response["metrics_ack"] = state.last_metrics_seq
        else:
            # Legacy single-bundle path (direct callers/tests).
            metrics = request.get("metrics")
            if metrics and self.metricsd is not None:
                self.metricsd.ingest_bundle(metrics, now,
                                            labels={"gateway_id": gateway_id})
        # Push only when *this gateway's network* changed since the version
        # it applied - version bumps from other tenants' namespaces leave
        # its desired state identical, so no bundle (full-state semantics
        # per push are preserved; only no-op pushes are elided).
        digest_roots = request.get("digest_roots")
        bundle = None
        stale = state.config_version < self.network_config_version(
            state.network_id)
        if (stale and self.digest_sync and digest_roots is not None
                and state.config_version > 0):
            # Digest path: elide matching namespaces entirely; open a tree
            # walk for divergent ones.  A first-contact gateway (version 0)
            # still gets the full bundle - walking a fully-divergent tree
            # would ship every leaf anyway, at more round trips.
            sync = self.reconciler.sync_info(state.network_id, digest_roots)
            if sync:
                response["sync"] = sync
                self.stats["digest_syncs"] += 1
            else:
                # Same content under a newer version number (a rewrite of
                # identical values): fast-forward the gateway's version.
                response["digest_in_sync"] = True
                self.stats["digest_elisions"] += 1
        elif stale:
            bundle = self.config_bundle(state.network_id)
            self.stats["config_pushes"] += 1
        # The full bundle dominates a response and is shared across a
        # storm of check-ins: it is sized once per (network, versions) and
        # attached only after the shallow remainder has been sized.
        self._record_wire(
            "checkin", request, response,
            _NO_CONFIG_BYTES if bundle is None
            else self._bundle_payload_bytes(state.network_id))
        response["config"] = bundle
        span.end()
        return response

    # -- the reconcile handler (registered as statesync/reconcile) -----------------

    def handle_reconcile(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One round of the digest-tree walk (see ``repro.core.sync``)."""
        if self.reconciler is None:
            raise ValueError("digest sync is disabled on this StateSync")
        response = self.reconciler.handle(request)
        response["config_version"] = self.store.version
        self.stats["reconcile_requests"] += 1
        for label_deltas in response["deltas"].values():
            for delta in label_deltas.values():
                self.stats["reconcile_upserts"] += len(delta["set"])
                self.stats["reconcile_tombstones"] += len(delta["delete"])
        self._record_wire("reconcile", request, response, _NO_CONFIG_BYTES)
        return response

    # -- wire-size observability ----------------------------------------------------

    def _record_wire(self, kind: str, request: Dict[str, Any],
                     response: Dict[str, Any], config_bytes: int) -> None:
        """Account one exchange; ``response`` is everything but the
        config bundle, whose size arrives as ``config_bytes``."""
        rx = payload_bytes(request)
        tx = payload_bytes(response) + config_bytes
        self.stats["rx_bytes"] += rx
        self.stats["tx_bytes"] += tx
        if self.monitor is not None:
            now = self.sim.now
            rx_series, tx_series = _WIRE_SERIES[kind]
            self.monitor.bounded_series(
                rx_series, WIRE_SERIES_SAMPLES).record(now, rx)
            self.monitor.bounded_series(
                tx_series, WIRE_SERIES_SAMPLES).record(now, tx)

    def _bundle_payload_bytes(self, network_id: str) -> int:
        versions = self._network_ns_versions(network_id)
        cached = self._bundle_bytes.get(network_id)
        if cached is not None and cached[0] == versions:
            return cached[1]
        # Read the bundle straight out of the cache (the caller just built
        # it) so sizing doesn't perturb the rebuild/cache-hit stats.
        bundled = self._bundle_cache.get(network_id)
        bundle = bundled[1] if bundled is not None \
            and bundled[0] == versions else self.config_bundle(network_id)
        size = payload_bytes(bundle)
        self._bundle_bytes[network_id] = (versions, size)
        return size

    # -- bundle construction ----------------------------------------------------------

    def _network_ns_versions(self, network_id: str) -> tuple:
        """Store versions of the namespaces this network's bundle reads
        (memoized per store version - see class docstring)."""
        store_version = self.store.version
        memo = self._ns_versions_memo.get(network_id)
        if memo is not None and memo[0] == store_version:
            return memo[1]
        versions = tuple(self.store.namespace_version(scoped(ns, network_id))
                         for ns in (NS_SUBSCRIBERS, NS_POLICIES, NS_RAN))
        self._ns_versions_memo[network_id] = (store_version, versions)
        return versions

    def network_config_version(self, network_id: str = DEFAULT_NETWORK) -> int:
        """Latest store version that changed this network's desired state."""
        return max(self._network_ns_versions(network_id))

    def config_bundle(self, network_id: str = DEFAULT_NETWORK
                      ) -> Dict[str, Any]:
        """The network's full desired state (versioned cache).

        Cached against the network's per-namespace versions rather than the
        global store version: writes to other networks (or namespaces this
        bundle does not serve) bump the global version but hit the cache.
        """
        versions = self._network_ns_versions(network_id)
        cached = self._bundle_cache.get(network_id)
        if cached is not None and cached[0] == versions:
            self.stats["bundle_cache_hits"] += 1
            return cached[1]
        bundle = {
            "subscribers": self.store.namespace(
                scoped(NS_SUBSCRIBERS, network_id)),
            "policies": self.store.namespace(
                scoped(NS_POLICIES, network_id)),
            "ran": self.store.namespace(scoped(NS_RAN, network_id)),
        }
        self._bundle_cache[network_id] = (versions, bundle)
        self.stats["bundle_rebuilds"] += 1
        return bundle

    # -- gateway registry ----------------------------------------------------------------

    def gateways(self) -> List[GatewayState]:
        return list(self._gateways.values())

    def gateway(self, gateway_id: str) -> Optional[GatewayState]:
        return self._gateways.get(gateway_id)

    def gateway_count(self) -> int:
        return len(self._gateways)

    def offline_gateways(self, max_age: float) -> List[str]:
        """Gateways whose last check-in is older than ``max_age``.

        ``_by_recency`` is ordered by last check-in (each check-in moves
        the gateway to the end), so this scans exactly the offline prefix
        plus one sentinel entry.
        """
        now = self.sim.now
        out = []
        for gateway_id, state in self._by_recency.items():
            if now - state.last_checkin <= max_age:
                break
            out.append(gateway_id)
        return sorted(out)

    def stale_gateways(self) -> List[str]:
        """Gateways whose applied config lags *their own network's* desired
        state.  Comparing against the global ``store.version`` would report
        every other tenant's gateways stale forever after any one tenant's
        write — the same per-network scoping ``handle_checkin`` uses to
        elide no-op pushes.  Reads the per-network applied-version buckets:
        a converged fleet is one bucket probe, not a fleet walk."""
        out: List[str] = []
        for network_id, buckets in self._by_applied.items():
            net_version = self.network_config_version(network_id)
            for version, gateway_ids in buckets.items():
                if version < net_version:
                    out.extend(gateway_ids)
        return sorted(out)

    def _applied_bucket(self, state: GatewayState) -> Set[str]:
        buckets = self._by_applied.setdefault(state.network_id, {})
        bucket = buckets.get(state.config_version)
        if bucket is None:
            bucket = set()
            buckets[state.config_version] = bucket
        return bucket

    # -- checkpoint / restore ------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Snapshot the gateway registry (shard fail-over support).

        Only the registry needs saving: bundles, digests, and indexes are
        all derived state, rebuilt on demand from the config store and the
        restored registry.
        """
        return {"gateways": [{
            "gateway_id": g.gateway_id,
            "first_seen": g.first_seen,
            "last_checkin": g.last_checkin,
            "config_version": g.config_version,
            "checkins": g.checkins,
            "status": dict(g.status),
            "network_id": g.network_id,
            "last_metrics_seq": g.last_metrics_seq,
        } for g in self._by_recency.values()]}

    def restore(self, snapshot: Dict[str, Any]) -> int:
        """Rebuild the registry (and its indexes) from a checkpoint."""
        self._gateways = {}
        self._by_recency = OrderedDict()
        self._by_applied = {}
        for entry in snapshot["gateways"]:
            state = GatewayState(
                gateway_id=entry["gateway_id"],
                first_seen=entry["first_seen"],
                last_checkin=entry["last_checkin"],
                config_version=entry["config_version"],
                checkins=entry["checkins"],
                status=dict(entry["status"]),
                network_id=entry["network_id"],
                last_metrics_seq=entry["last_metrics_seq"])
            self._gateways[state.gateway_id] = state
            self._by_recency[state.gateway_id] = state
            self._applied_bucket(state).add(state.gateway_id)
        return len(self._gateways)


class ConvergenceTracker:
    """Publish→all-applied convergence lag as a first-class series.

    The desired-state model's core health question is not "did the push
    arrive" (pushes are allowed to be lost) but "how long until every
    gateway's applied version caught up with a publish".  The orchestrator
    calls :meth:`note_publish` on every northbound write; every check-in
    reports the gateway's applied version through :meth:`note_applied`.
    When the fleet-wide applied *floor* crosses a pending publish, the
    publish is converged and its lag lands in the ``sync.convergence.lag_s``
    series (monitor and/or metricsd, labelled by network).

    A gateway counts toward the floor from its first check-in onward, so a
    fleet member that goes dark holds its network's publishes pending —
    which is exactly the visibility the health engine wants: the pending
    age *is* the convergence lag the operator is living with.
    """

    SERIES = "sync.convergence.lag_s"

    def __init__(self, sim: Simulator, monitor: Optional[Monitor] = None,
                 metricsd: Optional[Metricsd] = None):
        self.sim = sim
        self.monitor = monitor
        self.metricsd = metricsd
        # network -> publish version -> publish time, oldest publish first.
        self._pending: Dict[str, "OrderedDict[int, float]"] = {}
        # network -> gateway id -> last applied version seen at check-in.
        self._applied: Dict[str, Dict[str, int]] = {}
        self.last_lag: Dict[str, float] = {}
        self.stats = {"publishes": 0, "converged": 0}

    def note_publish(self, network_id: str, version: int) -> None:
        pending = self._pending.setdefault(network_id, OrderedDict())
        if version in pending:
            return
        pending[version] = self.sim.now
        self.stats["publishes"] += 1

    def note_applied(self, network_id: str, gateway_id: str,
                     version: int) -> None:
        applied = self._applied.setdefault(network_id, {})
        if applied.get(gateway_id) == version:
            return  # steady-state check-in: nothing moved
        applied[gateway_id] = version
        pending = self._pending.get(network_id)
        if not pending:
            return
        floor = min(applied.values())
        now = self.sim.now
        while pending:
            oldest_version, published = next(iter(pending.items()))
            if oldest_version > floor:
                break
            pending.popitem(last=False)
            lag = now - published
            self.last_lag[network_id] = lag
            self.stats["converged"] += 1
            if self.monitor is not None:
                self.monitor.series(self.SERIES).record(now, lag)
            if self.metricsd is not None:
                self.metricsd.ingest(self.SERIES, lag, now,
                                     labels={"network_id": network_id})

    # -- health-engine queries -------------------------------------------------

    def pending_count(self, network_id: str = DEFAULT_NETWORK) -> int:
        return len(self._pending.get(network_id, ()))

    def pending_networks(self) -> List[str]:
        """Networks with at least one unconverged publish."""
        return [network_id for network_id, pending in self._pending.items()
                if pending]

    def oldest_pending_age(self, network_id: str = DEFAULT_NETWORK) -> float:
        """Seconds the oldest unconverged publish has been waiting (0 when
        fully converged): the live convergence lag."""
        pending = self._pending.get(network_id)
        if not pending:
            return 0.0
        return self.sim.now - next(iter(pending.values()))

    def oldest_unapplied_publish(self, network_id: str,
                                 applied_version: int) -> Optional[float]:
        """Publish time of the oldest pending version a gateway at
        ``applied_version`` has not applied yet (None if caught up)."""
        pending = self._pending.get(network_id)
        if pending:
            for version, published in pending.items():
                if version > applied_version:
                    return published
        return None
