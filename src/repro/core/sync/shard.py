"""Consistent-hash sharding of the orchestrator control plane.

§3.2's orchestrator is a horizontally scalable cloud service; TEGRA makes
the same argument for sharded mobile-core state services.  This module
partitions gateways across the orchestrator's N >= 1 ``StateSync``
shards by consistent hash of ``gateway_id``; the orchestrator resolves
the owning shard from the ring and its own id -> shard table:

- :class:`ConsistentHashRing` — a vnode ring mapping any string key to a
  shard.  Consistent hashing (rather than ``hash(gid) % N``) keeps
  assignments stable under reshards: growing the ring moves only
  ~1/N of the gateways.
- :class:`MergedGatewayView` / :class:`MergedMetricsView` — read-only
  merges over the per-shard ``StateSync`` registries and ``Metricsd``
  stores, so the northbound API (gateway listings, alerting, metric
  queries) is shard-count agnostic.

The views are duck-typed over the orchestrator services instead of
importing them: ``statesync`` imports this package for the digest engine,
so this package must not import ``statesync`` back.
"""

from __future__ import annotations

import bisect
from operator import attrgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .digest import key_hash

#: Virtual nodes per shard.  Balance error of a consistent-hash ring
#: falls off as ~1/sqrt(vnodes); 256 keeps the max/mean shard load
#: within a few percent at 10k gateways (the chi-square test bound).
VNODES = 256

_BY_TIME = attrgetter("time")


class ConsistentHashRing:
    """Maps string keys onto shards via a fixed ring of virtual nodes."""

    def __init__(self, shard_ids: Sequence[str]):
        if not shard_ids:
            raise ValueError("ring needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError(f"duplicate shard ids: {list(shard_ids)}")
        self.shard_ids = list(shard_ids)
        points = []
        for shard_id in shard_ids:
            for i in range(VNODES):
                points.append((key_hash(f"{shard_id}#{i}"), shard_id))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_for(self, key: str) -> str:
        """The shard owning ``key`` (first vnode clockwise of its hash)."""
        index = bisect.bisect_right(self._points, key_hash(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def assignments(self, keys: Iterable[str]) -> Dict[str, int]:
        """Shard -> count over ``keys`` (balance checks)."""
        counts = {shard_id: 0 for shard_id in self.shard_ids}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts


class MergedGatewayView:
    """Read-only union of per-shard ``StateSync`` gateway registries."""

    def __init__(self, statesyncs: Sequence[Any]):
        self._statesyncs = list(statesyncs)

    def gateways(self) -> List[Any]:
        out: List[Any] = []
        for sync in self._statesyncs:
            out.extend(sync.gateways())
        return out

    def gateway(self, gateway_id: str) -> Optional[Any]:
        for sync in self._statesyncs:
            state = sync.gateway(gateway_id)
            if state is not None:
                return state
        return None

    def gateway_count(self) -> int:
        return sum(sync.gateway_count() for sync in self._statesyncs)

    def offline_gateways(self, max_age: float) -> List[str]:
        out: List[str] = []
        for sync in self._statesyncs:
            out.extend(sync.offline_gateways(max_age))
        return sorted(out)

    def stale_gateways(self) -> List[str]:
        out: List[str] = []
        for sync in self._statesyncs:
            out.extend(sync.stale_gateways())
        return sorted(out)


class MergedMetricsView:
    """Read-only union of per-shard ``Metricsd`` stores.

    Each gateway's samples land on exactly one shard (its owner), so
    per-label queries concatenate and cross-shard sums add.
    """

    def __init__(self, metricsds: Sequence[Any]):
        self._metricsds = list(metricsds)

    def query(self, name: str,
              labels: Optional[Dict[str, str]] = None) -> List[Any]:
        out: List[Any] = []
        for metricsd in self._metricsds:
            out.extend(metricsd.query(name, labels))
        out.sort(key=_BY_TIME)
        return out

    def latest(self, name: str,
               labels: Optional[Dict[str, str]] = None) -> Optional[Any]:
        best = None
        for metricsd in self._metricsds:
            sample = metricsd.latest(name, labels)
            if sample is not None and (best is None
                                       or sample.time >= best.time):
                best = sample
        return best

    def series_names(self) -> List[str]:
        names = set()
        for metricsd in self._metricsds:
            names.update(metricsd.series_names())
        return sorted(names)

    def label_sets(self, name: str) -> List[Dict[str, str]]:
        out: List[Dict[str, str]] = []
        for metricsd in self._metricsds:
            out.extend(metricsd.label_sets(name))
        return out

    def sum_latest(self, name: str) -> float:
        return sum(metricsd.sum_latest(name) for metricsd in self._metricsds)
