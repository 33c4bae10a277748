"""CLI: traced attach storm export, and fleet health reporting.

Usage::

    PYTHONPATH=src python -m repro.obs [trace.json] [--ues N] [--rate R]
                                       [--seed S] [--sample-rate F]
                                       [--flightrec PATH]
    PYTHONPATH=src python -m repro.obs health [--agws N] [--shards N]
                                       [--duration S] [--seed S]
                                       [--flightrec PATH]

The first form runs the traced attach storm and writes Chrome trace JSON
(loads in ``chrome://tracing`` or https://ui.perfetto.dev).  The second
stands up a sharded fleet of real AGWs and prints per-AGW, per-shard, and
fleet health scores — including publish→all-applied convergence lag and
exemplar-linked attach p99s, each checked against the run's own recorded
traces.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import (
    aggregate_breakdown,
    build_traces,
    format_summary,
    procedure_summary,
)
from .export import write_chrome_trace


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] == "health":
        return _health_main(args[1:])
    return _trace_main(args)


def _trace_main(argv: Sequence[str]) -> int:
    from .scenario import run_traced_attach_storm

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Traced attach storm + Chrome trace export")
    parser.add_argument("output", nargs="?", default="trace.json",
                        help="Chrome trace JSON output path")
    parser.add_argument("--ues", type=int, default=20)
    parser.add_argument("--rate", type=float, default=5.0,
                        help="attach rate (UE/s)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--sample-rate", type=float, default=1.0)
    parser.add_argument("--flightrec", default=None,
                        help="also dump the flight recorder (JSONL) here")
    args = parser.parse_args(argv)

    run = run_traced_attach_storm(num_ues=args.ues, rate=args.rate,
                                  seed=args.seed,
                                  sample_rate=args.sample_rate)
    tracer = run.tracer
    print(f"attach storm: {run.attach_successes}/{args.ues} attached, "
          f"{tracer.stats['traces_sampled']}/{tracer.stats['traces_started']}"
          f" traces sampled, {tracer.stats['spans']} spans")
    recorder = run.site.sim.recorder
    events = write_chrome_trace(args.output, tracer.spans,
                                records=recorder.records())
    print(f"wrote {events} trace events to {args.output} "
          "(load in chrome://tracing or ui.perfetto.dev)")
    if args.flightrec:
        lines = recorder.dump_jsonl(args.flightrec)
        print(f"wrote {lines} flight-recorder lines to {args.flightrec}")

    traces = [t for t in build_traces(tracer.spans) if t.complete]
    summary = procedure_summary(traces)
    print("\nper-procedure latency:")
    print(format_summary(summary))

    attach_traces = [t for t in traces if t.name == "attach"]
    if attach_traces:
        fractions = aggregate_breakdown(traces, "attach")
        print("\nattach critical path (mean self-time share by component):")
        for component, fraction in sorted(fractions.items(),
                                          key=lambda kv: -kv[1]):
            print(f"  {fraction * 100:5.1f}%  {component}")
        slowest = max(attach_traces, key=lambda t: t.duration)
        print("\nslowest attach:")
        print(slowest.format())
    return 0


def _health_main(argv: Sequence[str]) -> int:
    from .scenario import run_health_fleet

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs health",
        description="Sharded-fleet health/SLO report")
    parser.add_argument("--agws", type=int, default=20)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--ues-per-agw", type=int, default=2)
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--checkin-interval", type=float, default=5.0)
    parser.add_argument("--flightrec", default=None,
                        help="dump the flight recorder (JSONL) here")
    args = parser.parse_args(argv)

    run = run_health_fleet(num_agws=args.agws, num_shards=args.shards,
                           ues_per_agw=args.ues_per_agw,
                           duration=args.duration, seed=args.seed,
                           checkin_interval=args.checkin_interval)
    report = run.report
    fleet = report["fleet"]
    print(f"fleet health @ t={fleet['time']:.1f}s: {fleet['agws']} AGWs, "
          f"mean {fleet['mean_score']:.1f}, min {fleet['min_score']:.1f}")
    lags = fleet["convergence_lag_s"]
    if lags:
        lag_text = ", ".join(f"{net}={lag:.2f}s"
                             for net, lag in sorted(lags.items()))
    else:
        lag_text = "none measured"
    print(f"convergence lag (publish → all applied): {lag_text}")
    pending = fleet["convergence_pending"]
    if pending:
        for net, age in sorted(pending.items()):
            print(f"  pending publish in {net}: waiting {age:.2f}s")
    else:
        print("  no unconverged publishes")

    print("\nper-shard:")
    for shard_id, row in sorted(report["shards"].items()):
        print(f"  {shard_id:<8} agws={row['agws']:<3} "
              f"mean={row['mean_score']:6.1f}  min={row['min_score']:6.1f}"
              f"  worst={row['worst_agw']}")

    trace_ids = {span.trace_id for span in run.tracer.spans}
    exemplars = 0
    resolved = 0
    print("\nper-AGW:")
    for gateway_id, health in sorted(report["agws"].items()):
        sub = health["subscores"]
        detail = health["detail"]
        line = (f"  {gateway_id:<8} score={health['score']:6.1f}  "
                f"attach={sub['attach']:.2f} latency={sub['latency']:.2f} "
                f"cpu={sub['cpu']:.2f} fresh={sub['freshness']:.2f} "
                f"conv={sub['convergence']:.2f}")
        p99 = detail.get("attach_p99_s")
        if p99 is not None:
            line += f"  p99={p99 * 1e3:.1f}ms"
        exemplar = detail.get("attach_p99_exemplar")
        if exemplar is not None:
            exemplars += 1
            ok = exemplar["trace_id"] in trace_ids
            resolved += ok
            line += (f" trace={exemplar['trace_id']:x}"
                     f"{'' if ok else ' (UNRESOLVED)'}")
        print(line)
    print(f"\nexemplar check: {resolved}/{exemplars} p99 exemplars resolve "
          "to recorded traces")
    if args.flightrec:
        lines = run.recorder.dump_jsonl(args.flightrec)
        print(f"wrote {lines} flight-recorder lines to {args.flightrec}")
    return 0 if resolved == exemplars else 1
