"""SimSan smoke harness: real workloads under the runtime sanitizer.

Runs the two workloads CI gates on — the bench_kernel attach storm and a
bench_fleet smoke-sized fleet leg — with ``Simulator(sanitizer=SimSan())``
armed, and fails (exit 1) if the sanitizer produces *any* report: an
orphaned timer at drain, a cross-process RNG stream interleaving, or a
release-discipline violation.  Each leg writes its sanitizer report as a
reprolint-shaped JSON artifact so CI can upload it for inspection.

The legs deliberately reuse the bench harnesses' exact workload shapes
(same seeds, sizes, and drain protocol) so a clean run here certifies the
same event stream the deterministic bench canaries pin down.  With
``--profile`` the self-profiler rides the attach storm on the same kernel
hook seam as the sanitizer, and the run also fails unless it attributed
kernel time.

Usage::

    PYTHONPATH=src python benchmarks/simsan_smoke.py \
        --out-dir simsan-reports
    PYTHONPATH=src python benchmarks/simsan_smoke.py --leg attach-storm \
        --profile --out-dir simsan-reports
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core.agw import VIRTUAL_8VCPU, AgwConfig  # noqa: E402
from repro.experiments.common import build_emulated_site  # noqa: E402
from repro.obs.profiler import detach, install  # noqa: E402
from repro.sim import SimSan  # noqa: E402
from repro.workloads.attach_storm import AttachStorm  # noqa: E402
from repro.workloads.fleet import (  # noqa: E402
    AgwFleetAdapter,
    CohortSpec,
    UeFleet,
)

# Attach-storm leg: identical to bench_kernel.attach_storm's smoke shape,
# whose success count (61 for 120 UEs, seed 7) is a committed canary.
STORM_UES = 120
STORM_RATE = 10.0
STORM_SEED = 7

# Fleet leg: bench_fleet's smoke fleet shape, scaled to one AGW so the
# sanitized run stays under a minute while still exercising the cohort
# aggregator, sampled coroutine UEs, and the periodic fleet ticker.
FLEET_SUBSCRIBERS = 2_000
FLEET_SAMPLE_UES = 50
FLEET_DURATION = 120.0
FLEET_SEED = 23
FLEET_CONFIG = AgwConfig(hardware=VIRTUAL_8VCPU)


def attach_storm_leg(san: SimSan, profile: bool = False) -> dict:
    site = build_emulated_site(num_enbs=4, num_ues=STORM_UES,
                               seed=STORM_SEED, sanitizer=san)
    profiler = install(site.sim) if profile else None
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=STORM_RATE,
                        monitor=site.monitor)
    storm.start()
    try:
        site.sim.run_until_triggered(
            storm.done, limit=site.sim.now + 120.0 + STORM_UES / STORM_RATE)
        site.sim.run(until=site.sim.now + 10.0)
    finally:
        if profiler is not None:
            detach(site.sim)
    summary = {
        "leg": "attach-storm",
        "n_ues": STORM_UES,
        "successes": storm.success_count(),
        "pending_after_drain": site.sim.pending,
    }
    if profiler is not None:
        summary["profiled_subsystems"] = sorted(
            profiler.report()["subsystems"])
    return summary


def fleet_leg(san: SimSan) -> dict:
    enbs = max(1, (FLEET_SAMPLE_UES + 95) // 96)
    site = build_emulated_site(num_enbs=enbs, num_ues=FLEET_SAMPLE_UES,
                               config=FLEET_CONFIG, seed=FLEET_SEED,
                               sanitizer=san)
    cohort = CohortSpec("subs", size=FLEET_SUBSCRIBERS, attach_rate=0.01,
                        detach_rate=0.002, idle_rate=0.005,
                        resume_rate=0.02, traffic_mbps=0.01)
    fleet = UeFleet(site.sim, site.rng, [AgwFleetAdapter(site.agw)],
                    [cohort], monitor=site.monitor, tick=1.0,
                    name="simsan")
    fleet.add_sample_ues("subs", site.ues)
    fleet.start()
    site.sim.run(until=FLEET_DURATION)
    return {
        "leg": "fleet",
        "subscribers": FLEET_SUBSCRIBERS,
        "sample_ues": FLEET_SAMPLE_UES,
        "attached_at_end": fleet.attached(),
        "attach_accepted": fleet.counters["attach_accepted"],
        "sample_attach_successes":
            fleet.counters["sample_attach_successes"],
    }


def run_leg(name, leg_fn, out_dir: str) -> bool:
    san = SimSan()
    summary = leg_fn(san)
    report = san.to_report()
    report["workload"] = summary
    path = os.path.join(out_dir, f"simsan-{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    n = len(san.reports)
    status = "clean" if n == 0 else f"{n} report(s)"
    print(f"[simsan] {name}: {status} -> {path}")
    for key, value in summary.items():
        if key != "leg":
            print(f"  {key}: {value}")
    for rep in san.reports[:10]:
        print(f"  !! {rep['code']} {rep['check']}: {rep['message']}")
    if "profiled_subsystems" in summary and not \
            {"kernel.loop", "kernel.dispatch"} <= \
            set(summary["profiled_subsystems"]):
        print(f"  !! profiler attributed no kernel time ({name})")
        return False
    return n == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=".",
                        help="directory for the JSON report artifacts")
    parser.add_argument("--leg", choices=["attach-storm", "fleet"],
                        help="run only one leg (default: both)")
    parser.add_argument("--profile", action="store_true",
                        help="also install the self-profiler on the "
                             "attach-storm leg")
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    legs = [("attach-storm",
             functools.partial(attach_storm_leg, profile=args.profile)),
            ("fleet", fleet_leg)]
    if args.leg:
        legs = [(n, fn) for n, fn in legs if n == args.leg]
    clean = True
    for name, fn in legs:
        clean = run_leg(name, fn, args.out_dir) and clean
    if not clean:
        print("[simsan] FAILED: sanitizer produced reports", file=sys.stderr)
        return 1
    print("[simsan] all legs clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
