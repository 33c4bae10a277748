"""One rep of one workload, in this process.

``run.py`` starts this file in a fresh subprocess per rep (so every rep
pays and reports its own set-up, peak RSS is the rep's own, and heap
state never carries over); tests call :func:`run_rep` directly.

Modes: ``plain`` times the untraced timed section; ``count`` runs it
under the C profile hook without caller edges, for the exact
``host_calls``; ``trace`` runs it under the full hook, folds the profile
by layer and writes ``out/<workload>.trace.json``.

Host seconds (``wall_s``, ``setup_s``) are normalised by the interleaved
speed reference (``speedref.py``); the raw clocks ride along as
``raw_wall_s`` / ``raw_setup_s``.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict

import layertrace
import metrics
from speedref import SpeedReference, normalised

MODES = ("plain", "count", "trace")
SIZES = ("full", "smoke")
OUT_DIR = os.path.join(layertrace.BENCH_DIR, "out")


def sim_digest(simulated: Dict[str, Any]) -> str:
    """BLAKE2b over the canonical form of every simulated count, latency
    sample and byte total: equal digests mean bit-identical behaviour."""
    canonical = json.dumps(simulated, sort_keys=True).encode()
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


def run_rep(workload: str, seed: int, size: str, mode: str) -> Dict[str, Any]:
    started = time.perf_counter()
    ref = SpeedReference(enabled=True)
    ref.tick(force=True)
    # Importing the program is part of set-up, so it happens on the clock.
    if layertrace.SRC_DIR not in sys.path:
        sys.path.insert(0, layertrace.SRC_DIR)
    from workloads import PARAMS, WORKLOADS
    ref.tick(force=True)
    spans = layertrace.SpanLog()
    with spans.span("setup"):
        instance = WORKLOADS[workload](seed, PARAMS[size][workload], ref)
        before = instance.counts()
    # Garbage made by set-up is collected before the clock starts and the
    # survivors are frozen, so the collector does not rescan the whole
    # deployment at a random point of the timed section.
    gc.collect()
    gc.freeze()
    ref.tick(force=True)
    raw_setup_s = time.perf_counter() - started
    after_setup = ref.snapshot()
    setup_s = normalised(raw_setup_s, (0, 0.0), after_setup)

    def timed() -> None:
        with spans.span("timed"):
            instance.run(spans)

    stats = None
    try:
        if mode == "plain":
            clock = time.perf_counter()
            timed()
            elapsed = time.perf_counter() - clock
            after_run = ref.snapshot()
            raw_wall_s = elapsed - (after_run[1] - after_setup[1])
            wall_s = normalised(elapsed, after_setup, after_run)
        else:
            # No bursts under the hook: they would add self time to the
            # ``bench`` layer, and a profile is not comparable to a clock.
            ref.enabled = False
            raw_wall_s, stats = layertrace.profile(
                timed, edges=(mode == "trace"))
            wall_s = raw_wall_s
    finally:
        gc.unfreeze()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = instance.counts()
    counts = {name: after[name] - before[name] for name in after}
    results = instance.results(counts)
    samples = len(results.get("attach_latencies_s", ()))
    if size == "full" and samples:
        results["checks"]["attach_samples_put_ten_beyond_p99"] = \
            samples >= metrics.MIN_ATTACH_SAMPLES
    record: Dict[str, Any] = {
        "workload": workload, "seed": seed, "size": size, "mode": mode,
        "wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": raw_wall_s, "raw_setup_s": raw_setup_s,
        "speed_bursts": ref.bursts,
        "attempted": results["attempted"], "failed": results["failed"],
        "checks": results["checks"],
        "sim_digest": sim_digest({
            "counts": counts, "gauges": results["gauges"],
            "attempted": results["attempted"], "failed": results["failed"],
            "fault_refused_ops": results.get("fault_refused_ops", 0),
            "attach_latencies_s": results.get("attach_latencies_s", []),
            "converge_lags_s": results.get("converge_lags_s", []),
            "walks": [results.get(key, 0) for key in
                      ("walks", "walks_converged", "walk_rounds")],
            "extra": results["sim_extra"]}),
        "layer_metrics": metrics.state_metrics(counts, results),
        "rate": {"unit": instance.rate_unit,
                 "value": results["work"] / raw_wall_s},
    }
    if stats is not None:
        record["host_calls"] = layertrace.total_calls(stats)
    if mode == "trace":
        folded = layertrace.fold(stats)
        record["layers"] = folded["layers"]
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{workload}.trace.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "size": size,
                       "traced_wall_s": raw_wall_s,
                       "host_calls": record["host_calls"],
                       "sim_digest": record["sim_digest"],
                       "spans": spans.spans, **folded}, fh, indent=1)
            fh.write("\n")
        record["trace_file"] = path
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("size", choices=SIZES)
    parser.add_argument("mode", choices=MODES)
    args = parser.parse_args(argv)
    print(json.dumps(run_rep(args.workload, args.seed, args.size, args.mode)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
