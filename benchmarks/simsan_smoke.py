"""SimSan smoke harness: real workloads under the runtime sanitizer.

Runs the workloads CI gates on — the bench_components attach storm, a
smoke-sized cohort fleet, and a mixed-RAT leg (LTE, 5G and WiFi
clients cycling through one AGW's three frontends) — with
``Simulator(sanitizer=SimSan())`` armed, and fails (exit 1) if the
sanitizer produces *any* report: an orphaned timer at drain or a
cross-process RNG stream interleaving.
Each leg writes its sanitizer report as a reprolint-shaped JSON artifact
so CI can upload it for inspection.

The first two legs deliberately reuse bench_components' exact workload
shapes (same seeds, sizes, and drain protocol) so a clean run here
certifies the same event stream the deterministic bench canaries pin
down.  With ``--profile`` the self-profiler rides every leg on the same
kernel hook seam as the sanitizer, and the run also fails unless it
charged time to the kernel loop and to callbacks' owner modules.  The
fleet leg puts zero-delay lane entries beside the cohort ticker's
periodic ticks on that seam.

Usage::

    PYTHONPATH=src python benchmarks/simsan_smoke.py \
        --out-dir simsan-reports
    PYTHONPATH=src python benchmarks/simsan_smoke.py --leg attach-storm \
        --profile --out-dir simsan-reports
    PYTHONPATH=src python benchmarks/simsan_smoke.py --leg fleet \
        --profile --out-dir simsan-reports
    PYTHONPATH=src python benchmarks/simsan_smoke.py --leg multi-rat \
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
from repro.deploy import build, subscriber_keys  # noqa: E402
from repro.fiveg import Ue5g  # noqa: E402
from repro.obs.profiler import KERNEL, Profiler  # noqa: E402
from repro.sim.sansim import SimSan  # noqa: E402
from repro.workloads.attach_storm import AttachStorm  # noqa: E402
from repro.workloads.fleet import (  # noqa: E402
    AgwFleetAdapter,
    CohortSpec,
    UeFleet,
)

# Attach-storm leg: identical to bench_components' smoke attach storm,
# whose success count (59 for 120 UEs, seed 7) is a committed canary.
STORM_UES = 120
STORM_RATE = 10.0
STORM_SEED = 7

# Fleet leg: bench_components' smoke fleet shape, scaled to one AGW so the
# sanitized run stays under a minute while still exercising the cohort
# aggregator, sampled coroutine UEs, and the periodic fleet ticker.
FLEET_SUBSCRIBERS = 2_000
FLEET_SAMPLE_UES = 50
FLEET_DURATION = 120.0
FLEET_SEED = 23
FLEET_CONFIG = AgwConfig(hardware=VIRTUAL_8VCPU)

# Mixed-RAT leg: this many clients per RAT, each running this many
# procedure cycles (LTE attach/detach; 5G register/PDU/release/deregister;
# WiFi connect/stop, every fourth client with a wrong secret).
MULTI_RAT_CLIENTS = 10
MULTI_RAT_CYCLES = 2
MULTI_RAT_SEED = 11

# Owner keys every profiled leg must charge: the loop itself and the one
# access-procedure module all three RATs run through.
PROFILED_OWNERS = {KERNEL, "core.agw.mme"}


def _profiled(sim) -> Profiler:
    profiler = Profiler()
    sim.add_hook(profiler)
    return profiler


def attach_storm_leg(san: SimSan, profile: bool = False) -> dict:
    site = build(num_enbs=4, num_ues=STORM_UES, seed=STORM_SEED,
                 sanitizer=san)
    profiler = _profiled(site.sim) if profile else None
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=STORM_RATE,
                        monitor=site.monitor)
    storm.start()
    site.sim.run_until_triggered(
        storm.done, limit=site.sim.now + 120.0 + STORM_UES / STORM_RATE)
    site.sim.run(until=site.sim.now + 10.0)
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


def multi_rat_leg(san: SimSan, profile: bool = False) -> dict:
    n = MULTI_RAT_CLIENTS
    site = build(num_enbs=2, num_ues=3 * n, rats=("5g", "wifi"),
                 config=AgwConfig(hardware=VIRTUAL_8VCPU),
                 seed=MULTI_RAT_SEED, sanitizer=san)
    sim, gnb, ap = site.sim, site.gnbs[0], site.aps[0]
    profiler = _profiled(sim) if profile else None
    outcomes = {"lte": 0, "nr": 0, "wifi": 0, "wifi_refused": 0}

    def lte(ue, delay):
        yield sim.timeout(delay)
        for _ in range(MULTI_RAT_CYCLES):
            outcome = yield ue.attach()
            outcomes["lte"] += outcome.success
            yield sim.timeout(2.0)
            yield ue.detach(switch_off=False)
            yield sim.timeout(1.0)

    def nr(ue, delay):
        yield sim.timeout(delay)
        for _ in range(MULTI_RAT_CYCLES):
            if (yield ue.register()):
                session = yield ue.establish_pdu_session()
                outcomes["nr"] += session
                yield sim.timeout(1.0)
                yield ue.release_pdu_session()
                ue.deregister()
            yield sim.timeout(1.0)

    def wifi(username, secret, delay):
        yield sim.timeout(delay)
        for _ in range(MULTI_RAT_CYCLES):
            state = yield ap.connect(username, secret)
            if state.connected:
                outcomes["wifi"] += 1
                yield sim.timeout(2.0)
                ap.disconnect(username)
            else:
                outcomes["wifi_refused"] += 1
            yield sim.timeout(1.0)

    for i in range(n):
        sim.spawn(lte(site.ues[i], 0.3 * i), name=f"smoke-lte:{i}")
        k, opc = subscriber_keys(n + i + 1)
        sim.spawn(nr(Ue5g(sim, site.imsis[n + i], k, opc, gnb), 0.3 * i),
                  name=f"smoke-nr:{i}")
        username = site.imsis[2 * n + i]
        secret = "wrong-secret" if i % 4 == 3 else f"wifi-{username}"
        sim.spawn(wifi(username, secret, 0.3 * i), name=f"smoke-wifi:{i}")
    sim.run(until=sim.now + 60.0)
    summary = {"leg": "multi-rat", "clients_per_rat": n, **outcomes,
               "attach_requests": site.agw.mme.stats["attach_requests"],
               "attach_accepted": site.agw.mme.stats["attach_accepted"],
               "attach_rejected": site.agw.mme.stats["attach_rejected"],
               "pending_after_drain": sim.pending}
    if profiler is not None:
        summary["profiled_subsystems"] = sorted(
            profiler.report()["subsystems"])
    return summary


def fleet_leg(san: SimSan, profile: bool = False) -> dict:
    enbs = max(1, (FLEET_SAMPLE_UES + 95) // 96)
    site = build(num_enbs=enbs, num_ues=FLEET_SAMPLE_UES, config=FLEET_CONFIG,
                 seed=FLEET_SEED, sanitizer=san)
    profiler = _profiled(site.sim) if profile else None
    cohort = CohortSpec("subs", size=FLEET_SUBSCRIBERS, attach_rate=0.01,
                        detach_rate=0.002, idle_rate=0.005,
                        resume_rate=0.02, traffic_mbps=0.01)
    fleet = UeFleet(site.sim, site.rng, [AgwFleetAdapter(site.agw)],
                    [cohort], monitor=site.monitor, tick=1.0,
                    name="simsan")
    fleet.add_sample_ues("subs", site.ues)
    fleet.start()
    site.sim.run(until=FLEET_DURATION)
    summary = {
        "leg": "fleet",
        "subscribers": FLEET_SUBSCRIBERS,
        "sample_ues": FLEET_SAMPLE_UES,
        "attached_at_end": fleet.attached(),
        "attach_accepted": fleet.counters["attach_accepted"],
        "sample_attach_successes":
            fleet.counters["sample_attach_successes"],
    }
    if profiler is not None:
        summary["profiled_subsystems"] = sorted(
            profiler.report()["subsystems"])
    return summary


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
            PROFILED_OWNERS <= set(summary["profiled_subsystems"]):
        print(f"  !! profiler charged no time to the kernel loop or the "
              f"MME ({name})")
        return False
    return n == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=".",
                        help="directory for the JSON report artifacts")
    parser.add_argument("--leg", choices=["attach-storm", "fleet",
                                          "multi-rat"],
                        help="run only one leg (default: all three)")
    parser.add_argument("--profile", action="store_true",
                        help="also run the self-profiler on every leg")
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    legs = [("attach-storm",
             functools.partial(attach_storm_leg, profile=args.profile)),
            ("fleet", functools.partial(fleet_leg, profile=args.profile)),
            ("multi-rat",
             functools.partial(multi_rat_leg, profile=args.profile))]
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
