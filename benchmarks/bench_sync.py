"""Check-in storm bench: digest reconciliation vs full-bundle push.

Emits ``BENCH_sync.json`` — the committed wire-cost trajectory — and
checks fresh runs against the committed snapshot, mirroring
``bench_fleet.py``.

The scenario is the worst case for full-bundle sync and the best case
the digest protocol was built for (§3.4 / real Magma's subscriberdb
digest streaming): a fleet of N gateways, all converged on a 500-entry
subscriber bundle, sees a *single key* change.  Every gateway's next
check-in is stale.  Two legs over the same ``StateSync`` protocol, store
and change:

- **bundle leg**: gateways check in without digest roots, as a
  first-contact or rootless client does, so every check-in re-ships the
  entire bundle — N x ~60 KB for one changed key.
- **digest leg**: check-ins carry per-namespace digest roots; the
  orchestrator opens a tree walk that narrows to the one divergent
  leaf bucket and ships an exact key delta.  Gateways share one base
  :class:`~repro.core.sync.DigestMirror`; each walk runs over a
  copy-on-write overlay, which is what lets the 50k-gateway point fit
  in memory.

Wire bytes are measured by ``StateSync`` itself (the same
``payload_bytes`` accounting production check-ins report to the
monitor), so the bench measures the shipping path, not a model of it.
Byte counts, reconcile rounds, and convergence are **exact** for fixed
content — any divergence is a protocol change, not noise.  Throughput
floors sit far below observed values so shared CI runners never trip
them while a real regression (an O(bundle) step reintroduced per
check-in) always does.

Usage::

    PYTHONPATH=src python benchmarks/bench_sync.py --all --out BENCH_sync.json
    PYTHONPATH=src python benchmarks/bench_sync.py --smoke \
        --out BENCH_sync.fresh.json --check BENCH_sync.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.orchestrator import ConfigStore  # noqa: E402
from repro.core.orchestrator.statesync import StateSync  # noqa: E402
from repro.core.sync import (  # noqa: E402
    DigestIndex,
    DigestMirror,
    ReconcileClient,
)
from repro.sim import Monitor, Simulator  # noqa: E402

SUBSCRIBERS = 500
NETWORK = "default"

SIZES = {
    # mode: gateway counts for the storm sweep
    "smoke": [1_000],
    "full": [1_000, 10_000, 50_000],
}

# Hard floor on the wire-bytes reduction of the digest leg vs the
# bundle leg at every storm size.  Observed ~47x with a 500-entry
# bundle; the acceptance bar from the scale-out issue is 20x.
WIRE_REDUCTION_FLOOR = 20.0

# Absolute floor on digest-leg check-ins/sec (walk rounds included).
# Observed well above 10^4/s; the floor only catches a catastrophic
# regression (an O(bundle) step back on the per-check-in path).
CHECKINS_PER_SEC_FLOOR = 1_000.0

# Exact-for-fixed-content canaries (bytes, rounds, convergence).
CANARIES = ("tx_bytes", "rx_bytes", "bytes_per_checkin")
DIGEST_CANARIES = CANARIES + ("reconcile_rounds", "converged")


def build_store() -> ConfigStore:
    """A 500-subscriber desired state; content fixed, fully deterministic."""
    store = ConfigStore()
    for i in range(SUBSCRIBERS):
        imsi = f"00101{i:010d}"
        store.put("subscribers", imsi, {
            "imsi": imsi, "policy_id": "default", "apn": "internet",
            "sub_profile": "max", "state": "ACTIVE"})
    store.put("policies", "default", {
        "id": "default", "priority": 1, "rate_mbps": 0.0})
    return store


def synced_mirror(store: ConfigStore) -> DigestMirror:
    """The digest mirror of a gateway that fully applied the store."""
    mirror = DigestMirror()
    mirror.rebuild("subscribers", store.namespace("subscribers"))
    mirror.rebuild("policies", store.namespace("policies"))
    mirror.rebuild("ran", store.namespace("ran"))
    return mirror


def _peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def bundle_leg(store: ConfigStore, stale_version: int, n: int) -> dict:
    """Rootless check-ins: every stale one re-ships the full bundle."""
    statesync = StateSync(Simulator(), store)
    gc.collect()
    t0 = time.perf_counter()
    for i in range(n):
        response = statesync.handle_checkin({
            "gateway_id": f"agw-{i}", "network_id": NETWORK,
            "config_version": stale_version})
        assert response["config"] is not None
    wall = time.perf_counter() - t0
    assert statesync.stats["config_pushes"] == n
    return _leg_result("bundle", statesync, n, wall)


def digest_leg(store: ConfigStore, stale_version: int, n: int,
               base: DigestMirror) -> dict:
    """The digest path: roots at check-in, tree walk to the one delta."""
    monitor = Monitor()
    statesync = StateSync(Simulator(), store, digests=DigestIndex(store),
                          monitor=monitor)
    roots = base.roots()             # every gateway is identically synced
    converged = 0
    rounds = 0
    gc.collect()
    t0 = time.perf_counter()
    for i in range(n):
        gateway_id = f"agw-{i}"
        response = statesync.handle_checkin({
            "gateway_id": gateway_id, "network_id": NETWORK,
            "config_version": stale_version, "digest_roots": roots})
        assert response["config"] is None and response.get("sync")
        # Each gateway walks over a copy-on-write overlay of the shared
        # base mirror: only the divergent leaf bucket is copied.
        mirror = base.overlay()
        client = ReconcileClient(mirror, _discard_delta, NETWORK,
                                 gateway_id)
        request = client.start(response)
        while request is not None:
            request = client.feed(statesync.handle_reconcile(request))
        result = client.result()
        converged += result.converged
        rounds += result.rounds
    wall = time.perf_counter() - t0
    out = _leg_result("digest", statesync, n, wall)
    out["converged"] = converged
    out["reconcile_rounds"] = rounds
    out["digest_syncs"] = statesync.stats["digest_syncs"]
    out["wire_series_samples"] = len(monitor.series("sync.checkin.tx_bytes"))
    return out


def _discard_delta(label, upserts, deletes, version):
    """The bench measures the wire, not gateway-local stores."""


def _leg_result(mode: str, statesync: StateSync, n: int,
                wall: float) -> dict:
    tx = statesync.stats["tx_bytes"]
    rx = statesync.stats["rx_bytes"]
    return {
        "mode": mode,
        "gateways": n,
        "tx_bytes": tx,
        "rx_bytes": rx,
        "bytes_per_checkin": round(tx / n, 1),
        "wall_seconds": round(wall, 4),
        "checkins_per_sec": round(n / wall),
        "peak_rss_kb": _peak_rss_kb(),
    }


def _best_of(measure, reps: int = 3) -> dict:
    """Min-wall estimator, as in bench_kernel: timing noise is additive."""
    best = None
    for _ in range(reps):
        gc.collect()
        result = measure()
        if best is None or result["wall_seconds"] < best["wall_seconds"]:
            best = result
    return best


def run_point(n: int) -> dict:
    """One storm size: same store, same single-key change, both legs."""
    store = build_store()
    base = synced_mirror(store)      # fleet state *before* the change
    stale_version = store.version
    store.put("subscribers", "001019999999999", {
        "imsi": "001019999999999", "policy_id": "default",
        "apn": "internet", "sub_profile": "max", "state": "ACTIVE"})
    bundle = _best_of(lambda: bundle_leg(store, stale_version, n))
    digest = _best_of(lambda: digest_leg(store, stale_version, n, base))
    assert digest["converged"] == n, "digest walk failed to converge"
    return {
        "gateways": n,
        "subscribers": SUBSCRIBERS,
        "bundle": bundle,
        "digest": digest,
        "wire_reduction_x": round(bundle["tx_bytes"] / digest["tx_bytes"], 1),
    }


def run_mode(mode: str) -> dict:
    return {str(n): run_point(n) for n in SIZES[mode]}


def check(fresh: dict, committed: dict, mode: str) -> list:
    """Compare a fresh run against the committed snapshot; returns a list
    of failure strings (empty = green)."""
    failures = []
    new = fresh.get(mode)
    old = committed.get(mode)
    if old is None:
        return [f"committed snapshot has no {mode!r} section"]
    for size, point in new.items():
        if point["wire_reduction_x"] < WIRE_REDUCTION_FLOOR:
            failures.append(
                f"{size} gateways: wire reduction {point['wire_reduction_x']}x "
                f"below the {WIRE_REDUCTION_FLOOR}x floor")
        rate = point["digest"]["checkins_per_sec"]
        if rate < CHECKINS_PER_SEC_FLOOR:
            failures.append(
                f"{size} gateways: digest leg {rate:,}/s below the hard "
                f"floor {CHECKINS_PER_SEC_FLOOR:,.0f}/s")
        if size not in old:
            failures.append(f"committed snapshot has no {size}-gateway point")
            continue
        for leg, canaries in (("bundle", CANARIES),
                              ("digest", DIGEST_CANARIES)):
            for canary in canaries:
                if point[leg][canary] != old[size][leg][canary]:
                    failures.append(
                        f"{size} gateways: {leg} determinism canary "
                        f"{canary!r} changed: {point[leg][canary]} vs "
                        f"committed {old[size][leg][canary]} (wire protocol "
                        "or digest geometry perturbed?)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="1k gateways only, for CI (writes 'smoke')")
    parser.add_argument("--all", action="store_true",
                        help="run both smoke and full modes")
    parser.add_argument("--out", default=None,
                        help="write the fresh snapshot JSON here")
    parser.add_argument("--check", default=None, metavar="SNAPSHOT",
                        help="compare against a committed snapshot; exit 1 "
                             "on floor breach or canary divergence")
    args = parser.parse_args(argv)

    snapshot = {"schema": 1}
    modes = ["smoke", "full"] if args.all else (
        ["smoke"] if args.smoke else ["full"])
    for mode in modes:
        print(f"== {mode} ==")
        snapshot[mode] = run_mode(mode)
        for size, point in snapshot[mode].items():
            for leg in (point["bundle"], point["digest"]):
                print(f"  {size:>6} gws {leg['mode']:<7}: "
                      f"{leg['tx_bytes']:>13,} tx B "
                      f"({leg['bytes_per_checkin']:>9,.1f} B/checkin, "
                      f"{leg['checkins_per_sec']:>9,}/s, "
                      f"peak RSS {leg['peak_rss_kb'] / 1024:.0f} MB)")
            print(f"  {size:>6} gws reduction: "
                  f"{point['wire_reduction_x']}x fewer wire bytes")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")

    if args.check:
        with open(args.check) as fh:
            committed = json.load(fh)
        failures = []
        for mode in modes:
            failures.extend(check(snapshot, committed, mode))
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"regression check green vs {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
