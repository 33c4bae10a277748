"""Merkle-digest desired-state reconciliation + orchestrator sharding.

The scale-out half of §3.4's desired-state model: check-ins carry
namespace digests instead of version numbers alone, divergence ships
leaf-bucket deltas instead of full bundles, and gateways partition
across ``StateSync`` shards by consistent hash.  See DESIGN.md §6.6.
"""

from .digest import (
    DIGEST_BYTES,
    DigestIndex,
    DigestTree,
    NodePath,
    OverlayTree,
    canonical_bytes,
    entry_digest,
    key_hash,
)
from .reconcile import (
    SYNC_LABELS,
    DigestMirror,
    ReconcileClient,
    ReconcileResult,
    ReconcileServer,
)
from .shard import (
    ConsistentHashRing,
    MergedGatewayView,
    MergedMetricsView,
)

__all__ = [
    "DIGEST_BYTES",
    "ConsistentHashRing",
    "DigestIndex",
    "DigestMirror",
    "DigestTree",
    "MergedGatewayView",
    "MergedMetricsView",
    "NodePath",
    "OverlayTree",
    "ReconcileClient",
    "ReconcileResult",
    "ReconcileServer",
    "SYNC_LABELS",
    "canonical_bytes",
    "entry_digest",
    "key_hash",
]
