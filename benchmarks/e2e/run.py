"""One command for the whole-stack benchmark.

The driver's contract (one workload, one pass, one JSON object as the
last line of stdout)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Everything at once, for a person (both passes of every workload, reps
interleaved round-robin so a slow minute is shared, every metric printed
by name with its unit)::

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N ...] \
        [--size full|smoke] [--seconds S] [--out FILE]
    python3 benchmarks/e2e/run.py --selfcheck [--out FILE]

``--trace 0`` is the end-to-end pass: untraced reps, each in a fresh
subprocess with ``PYTHONHASHSEED=0``, for as long as ``--seconds`` allows
(at least ``MIN_REPS``); medians are reported; one more rep under the
call-counting hook gives ``host_calls``.  ``--trace 1`` is the traced
pass: one untraced rep, then one under the full profile hook, folded by
layer into the per-layer metrics and ``out/<workload>.trace.json``.

Every rep checks its outputs (README.md, "Correctness gate"); all reps of
a run must agree on ``sim_digest``.  Any failure prints which, exits 1,
and no number from the run is printed or written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from typing import Any, Dict, List, Sequence

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
REP = os.path.join(HERE, "rep.py")
WORKLOAD_NAMES = ("fleet_e2e", "signalling_multirat", "sync_checkin_storm",
                  "sync_publish_churn")
MIN_REPS = 3
DEFAULT_SECONDS = 14
#: Hard stop for one rep's subprocess; the driver allows a run 180 s.
REP_TIMEOUT_SECONDS = 150
#: Units of metrics that must repeat exactly run to run.
EXACT_UNITS = ("count", "calls", "bytes", "ratio", "sim_ms", "sim_s")


class BenchFailure(Exception):
    """A rep failed, a correctness check failed, or two reps disagreed."""


def spawn_rep(workload: str, seed: int, size: str, mode: str) -> Dict[str, Any]:
    """One rep in a fresh interpreter; raises with its stderr on failure."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, REP, workload, str(seed), size, mode], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=REP_TIMEOUT_SECONDS)
    if done.returncode != 0:
        raise BenchFailure(f"{workload} rep ({mode}) exited "
                           f"{done.returncode}:\n{done.stderr.strip()}")
    record = json.loads(done.stdout.splitlines()[-1])
    failing = [name for name, ok in record["checks"].items() if not ok]
    if failing:
        raise BenchFailure(f"{workload} rep ({mode}) failed its correctness "
                           f"checks: {', '.join(failing)}")
    return record


def same_digest(workload: str, records: Sequence[Dict[str, Any]]) -> str:
    digests = sorted({record["sim_digest"] for record in records})
    if len(digests) != 1:
        raise BenchFailure(f"{workload}: reps disagree on sim_digest "
                           f"({', '.join(digests)}) - the simulation is not "
                           "deterministic, or tracing perturbed it")
    return digests[0]


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median with quartiles and rep count (``statistics.quantiles``)."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def end_to_end_pass(workloads: Sequence[str], seed: int, size: str,
                    seconds: float) -> Dict[str, Dict[str, Any]]:
    """Untraced reps of every workload, round-robin, then the counted rep."""
    reps: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    spent = {w: 0.0 for w in workloads}
    while True:
        due = [w for w in workloads
               if len(reps[w]) < MIN_REPS or spent[w] < seconds]
        if not due:
            break
        for workload in due:
            started = time.perf_counter()
            reps[workload].append(spawn_rep(workload, seed, size, "plain"))
            spent[workload] += time.perf_counter() - started
    out = {}
    for workload in workloads:
        counted = spawn_rep(workload, seed, size, "count")
        first = reps[workload][0]
        out[workload] = {
            "sim_digest": same_digest(workload, reps[workload] + [counted]),
            "attempted": first["attempted"], "failed": first["failed"],
            "rate": {"unit": first["rate"]["unit"],
                     **summarise([r["rate"]["value"]
                                  for r in reps[workload]])},
            "raw_wall_s": summarise([r["raw_wall_s"]
                                     for r in reps[workload]]),
            "end_to_end": {
                "wall_s": summarise([r["wall_s"] for r in reps[workload]]),
                "setup_s": summarise([r["setup_s"] for r in reps[workload]]),
                "peak_rss_mb": summarise([r["peak_rss_mb"]
                                          for r in reps[workload]]),
                "host_calls": summarise([counted["host_calls"]]),
            },
        }
    return out


def traced_pass(workload: str, seed: int, size: str) -> Dict[str, Any]:
    """One untraced rep (outside timings, reference wall) + the traced rep."""
    plain = spawn_rep(workload, seed, size, "plain")
    traced = spawn_rep(workload, seed, size, "trace")
    values = dict(plain["layer_metrics"])
    values.update(metrics.profile_metrics(
        traced["layers"], traced["raw_wall_s"], plain["raw_wall_s"]))
    coverage = values["bench.trace_coverage"]
    if coverage < metrics.MIN_TRACE_COVERAGE:
        raise BenchFailure(f"{workload}: the layer table attributes only "
                           f"{coverage:.1%} of the traced wall")
    for metric in metrics.PER_LAYER:
        if metric.unit in EXACT_UNITS and \
                traced["layer_metrics"].get(metric.name) != \
                plain["layer_metrics"].get(metric.name):
            raise BenchFailure(f"{workload}: {metric.name} differs between "
                               "the untraced and the traced rep")
    return {"sim_digest": same_digest(workload, [plain, traced]),
            "attempted": traced["attempted"], "failed": traced["failed"],
            "host_calls": traced["host_calls"],
            "trace_file": os.path.relpath(traced["trace_file"]),
            "per_layer": values}


def machine() -> Dict[str, Any]:
    return {"platform": platform.platform(), "python": platform.python_version(),
            "cpus": os.cpu_count()}


def measure(workloads: Sequence[str], seeds: Sequence[int], size: str,
            seconds: float) -> Dict[str, Any]:
    """Both passes of every workload for every seed."""
    by_seed = {}
    for seed in seeds:
        results = end_to_end_pass(workloads, seed, size, seconds)
        for workload in workloads:
            traced = traced_pass(workload, seed, size)
            same_digest(workload, [results[workload], traced])
            if traced["host_calls"] != \
                    results[workload]["end_to_end"]["host_calls"]["median"]:
                raise BenchFailure(f"{workload}: host_calls differs between "
                                   "the counted and the traced rep")
            results[workload]["per_layer"] = traced["per_layer"]
            results[workload]["trace_file"] = traced["trace_file"]
        by_seed[str(seed)] = results
    return {"size": size, "seconds": seconds, "machine": machine(),
            "catalogue": {
                "end_to_end": [asdict(m) for m in metrics.END_TO_END],
                "per_layer": [asdict(m) for m in metrics.PER_LAYER]},
            "seeds": by_seed}


def spread(summary: Dict[str, float]) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def print_report(report: Dict[str, Any]) -> None:
    for seed, results in report["seeds"].items():
        for workload, result in results.items():
            print(f"== {workload}  seed {seed}  size {report['size']}  "
                  f"sim_digest {result['sim_digest']}")
            print(f"   ops: {result['attempted']} attempted, "
                  f"{result['failed']} failed; "
                  f"{result['rate']['median']:,.0f} {result['rate']['unit']}"
                  f" (raw wall {result['raw_wall_s']['median']:.3f} s)")
            for metric in metrics.END_TO_END:
                summary = result["end_to_end"][metric.name]
                text = (f"{summary['median']:.6g} [{summary['q1']:.6g}.."
                        f"{summary['q3']:.6g}] n={summary['n']}")
                if spread(summary) > metric.bound:
                    text = (f"unresolved (spread {spread(summary):.1%} > "
                            f"bound {metric.bound:.0%}; {text})")
                print(f"   {metric.name:<48} {text} {metric.unit}")
            for metric in metrics.PER_LAYER:
                print(f"   {metric.name:<48} "
                      f"{result['per_layer'][metric.name]:.6g} {metric.unit}")


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """A/A differences beyond what the benchmark itself tolerates."""
    problems = []
    for seed, results in a["seeds"].items():
        for workload, first in results.items():
            second = b["seeds"][seed][workload]
            where = f"{workload} seed {seed}"
            if first["sim_digest"] != second["sim_digest"]:
                problems.append(f"{where}: sim_digest differs")
            for metric in metrics.END_TO_END:
                one = first["end_to_end"][metric.name]
                two = second["end_to_end"][metric.name]
                for summary in (one, two):
                    if spread(summary) > metric.bound:
                        problems.append(
                            f"{where}: {metric.name} unresolved "
                            f"(spread {spread(summary):.1%})")
                bound = 0.0 if metric.unit in EXACT_UNITS else metric.bound
                if abs(two["median"] - one["median"]) > bound * one["median"]:
                    problems.append(
                        f"{where}: {metric.name} {one['median']:.6g} vs "
                        f"{two['median']:.6g} differs by more than "
                        f"{bound:.0%}")
            for metric in metrics.PER_LAYER:
                if metric.unit in EXACT_UNITS and \
                        first["per_layer"][metric.name] != \
                        second["per_layer"][metric.name]:
                    problems.append(f"{where}: {metric.name} differs")
    return problems


def write_json(path: str, document: Dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, action="append",
                        help="repeatable; default: 1")
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="untraced measuring budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: 0 = end-to-end metrics, "
                             "1 = per-layer metrics; one JSON line last")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two complete sets and compare them")
    parser.add_argument("--out", default=None,
                        help="write every metric, with quartiles, here")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOAD_NAMES)
    seeds = args.seed or [1]
    try:
        if args.trace is not None:
            if len(workloads) != 1 or len(seeds) != 1:
                parser.error("--trace takes exactly one workload and seed")
            workload, seed = workloads[0], seeds[0]
            if args.trace == 0:
                result = end_to_end_pass([workload], seed, args.size,
                                         args.seconds)[workload]
                catalogue = metrics.END_TO_END
                values = {name: summary["median"] for name, summary
                          in result["end_to_end"].items()}
            else:
                result = traced_pass(workload, seed, args.size)
                catalogue = metrics.PER_LAYER
                values = result["per_layer"]
            print(f"{workload} seed {seed}: sim_digest "
                  f"{result['sim_digest']}")
            print(json.dumps({
                "correct": True, "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                            for m in catalogue}}))
            return 0
        report = measure(workloads, seeds, args.size, args.seconds)
        print_report(report)
        if args.selfcheck:
            second = measure(workloads, seeds, args.size, args.seconds)
            problems = compare(report, second)
            report = {"a": report, "b": second, "problems": problems}
            for problem in problems:
                print(f"SELFCHECK: {problem}", file=sys.stderr)
            if problems:
                return 1
            print("selfcheck: two sets of the same code agree")
    except BenchFailure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    if args.out:
        write_json(args.out, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
