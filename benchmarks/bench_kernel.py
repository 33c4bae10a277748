"""Kernel perf-trajectory harness: measures, snapshots, and gates.

Emits ``BENCH_kernel.json`` — the committed perf trajectory for the event
kernel — and checks fresh runs against the committed snapshot so "as fast
as the hardware allows" is a tracked curve rather than a claim.

Three measurements:

- **timer churn**: the dominant RPC pattern — every simulated call
  schedules a deadline timer (+10 s, the repo's ``rpc_deadline``) and a
  retry probe (+0.25 s), then completes at +10 ms, revoking both.  Run
  twice: once on the real kernel (timer wheel + ``ScheduledCall.release``)
  and once on the plain-heap reference kernel (``tests/reference_kernel.py``)
  without cancellation — the pre-wheel kernel's behaviour, where completed
  calls' timers rot in the heap until their full deadline.  The in-run ratio is
  machine-independent and is the primary regression gate.
- **attach storm**: end-to-end wall time of a full emulated-site attach
  storm; its deterministic success count doubles as an event-ordering
  canary (a kernel change that perturbs event order changes it).
- **heap high-water**: physical scheduler entries (heap + wheel + far
  buffer) at peak, deterministic for a fixed workload.

Measurement protocol: one uncounted warmup, then best-of-3 (minimum wall
time, ``gc.collect()`` before each rep).  On shared/noisy machines timing
noise is strictly additive, so min-wall is the standard low-variance
estimator; run-to-run throughput on the container class that produced the
committed snapshot still swings +/-15%, which is why cross-machine absolute
numbers are recorded but not gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py --all --out BENCH_kernel.json
    PYTHONPATH=src python benchmarks/bench_kernel.py --smoke \
        --out BENCH_kernel.fresh.json --check BENCH_kernel.json

``--check`` fails (exit 1) when the in-run churn speedup drops below its
mode's hard floor, when the deterministic canaries diverge from the
committed snapshot (heap high-water, churn drain time, attach-storm success
count, attach-storm pending-after-drain), or — under ``BENCH_STRICT=1`` —
when absolute events/sec regress >20% (absolute numbers are not comparable
across machines, so they are recorded but not gated by default).  The
in-run speedup is gated by floor rather than relative to the snapshot
because even best-of-3 ratios swing ~±25% on shared runners; the floors are
set so a real regression (losing cancellation would drop the ratio to ~1x)
always trips them while noise never does.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from repro.experiments.common import build_emulated_site  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402
from repro.workloads.attach_storm import AttachStorm  # noqa: E402
from reference_kernel import ReferenceSimulator  # noqa: E402

# Measured on the kernel exactly as it stood before this PR (extracted from
# git: single global heap, no cancellation, per-entry handle-free tuples)
# with the identical full-mode churn workload below and the same warmup +
# gc.collect + best-of-3 protocol, in the same session on the same machine
# that produced the committed snapshot.  Kept in the snapshot so the file
# itself documents the before/after curve.
PRE_CHANGE_REFERENCE = {
    "note": ("pre-change kernel (global heap, no cancelation) from git, "
             "full-mode timer churn, best-of-3, snapshot machine/session"),
    "events_per_sec": 362_714,
    "heap_high_water": 102_657,
    "drained_at": 19.9968,
}

# In-run speedup floors (churn vs heap-baseline mode in the same process).
# The rot pathology scales with the in-flight window, so smoke's 20k-call
# heap shows less of it than full's 100k; each mode gates against its own
# floor.  Full mode's floor is the acceptance bar; smoke's is set well below
# its observed 2.1-3.7x range because a real regression (losing
# cancellation) drops the ratio to ~1x, far under any floor here.
SPEEDUP_FLOOR = {"smoke": 1.5, "full": 3.0}
REGRESSION_TOLERANCE = 0.20  # >20% drop vs the committed snapshot fails


def timer_churn(n_calls: int, spacing: float = 0.0001, deadline: float = 10.0,
                retry: float = 0.25, complete: float = 0.01,
                cancel: bool = True, wheel: bool = True,
                batch: int = 64, profiler=None) -> dict:
    """Pure timer churn: ``n_calls`` schedule-then-complete cycles.

    The deadline matches the repo's own ``rpc_deadline`` (10 s) so the rot
    window is the one real check-ins create.  Calls arrive in bursts of
    ``batch`` (RPC load is bursty — attach storms, check-in rounds) so the
    driver's own scheduling overhead stays out of the measured churn.  With
    ``cancel=False, wheel=False`` this reproduces the pre-change kernel's
    behaviour bit-for-bit on the plain-heap reference kernel: completed
    calls leave their deadline and retry timers queued until they fire as
    no-ops.
    """
    sim = Simulator() if wheel else ReferenceSimulator()
    if profiler is not None:
        # bench_profile replays this leg under the self-profiler; the
        # default path is untouched (and the canaries prove it).
        from repro.obs.profiler import install
        install(sim, profiler)
    high_water = 0
    schedule = sim.schedule
    call_later = sim.call_later

    def noop(i):
        pass

    if cancel:
        def finish(expire, attempt):
            # Same pattern as rpc._PendingCall.cancel_timers: the handles
            # die with this frame, so they go back to the kernel freelist.
            expire.release()
            attempt.release()

        def start(base):
            nonlocal high_water
            for i in range(base, min(base + batch, n_calls)):
                expire = schedule(deadline, noop, i)
                attempt = schedule(retry, noop, i)
                # Completions are never revoked -> fire-and-forget path,
                # exactly as simnet delivers datagrams.
                call_later(complete, finish, expire, attempt)
            depth = sim.queue_depth()
            if depth > high_water:
                high_water = depth
    else:
        def start(base):
            nonlocal high_water
            for i in range(base, min(base + batch, n_calls)):
                schedule(deadline, noop, i)
                schedule(retry, noop, i)
                schedule(complete, noop, i)
            depth = sim.queue_depth()
            if depth > high_water:
                high_water = depth

    for b in range(0, n_calls, batch):
        sim.schedule(spacing * b, start, b)
    t0 = time.perf_counter()
    try:
        sim.run()
    finally:
        if profiler is not None:
            from repro.obs.profiler import detach
            detach(sim)
    wall = time.perf_counter() - t0
    assert sim.pending == 0, "live timers left after drain"
    ops = n_calls * 3
    return {
        "n_calls": n_calls,
        "events_per_sec": round(ops / wall),
        "wall_seconds": round(wall, 4),
        "heap_high_water": high_water,
        "drained_at": round(sim.now, 6),
    }


def attach_storm(n_ues: int, rate: float = 10.0, seed: int = 7,
                 profiler=None) -> dict:
    """Wall time of a full emulated-site attach storm (S1AP/NAS/RPC over
    the kernel); the success count is deterministic for a fixed seed."""
    site = build_emulated_site(num_enbs=4, num_ues=n_ues, seed=seed)
    if profiler is not None:
        from repro.obs.profiler import install
        install(site.sim, profiler)
    storm = AttachStorm(site.sim, site.ues, rate_per_sec=rate,
                        monitor=site.monitor)
    storm.start()
    t0 = time.perf_counter()
    try:
        site.sim.run_until_triggered(
            storm.done, limit=site.sim.now + 120.0 + n_ues / rate)
        site.sim.run(until=site.sim.now + 10.0)
    finally:
        if profiler is not None:
            from repro.obs.profiler import detach
            detach(site.sim)
    wall = time.perf_counter() - t0
    return {
        "n_ues": n_ues,
        "rate_per_sec": rate,
        "wall_seconds": round(wall, 4),
        "successes": storm.success_count(),
        "queue_high_water": site.sim.queue_depth(),
        "pending_after_drain": site.sim.pending,
    }


def _best_of(measure, reps: int = 3) -> dict:
    """Min-wall estimator: timing noise is additive, so the fastest of
    ``reps`` runs (GC drained before each) is the low-variance sample."""
    best = None
    for _ in range(reps):
        gc.collect()
        result = measure()
        if best is None or result["wall_seconds"] < best["wall_seconds"]:
            best = result
    return best


def run_mode(smoke: bool) -> dict:
    n_calls = 20_000 if smoke else 100_000
    n_ues = 120 if smoke else 300
    timer_churn(min(n_calls, 20_000))  # warmup: interpreter specialization
    churn = _best_of(lambda: timer_churn(n_calls))
    baseline = _best_of(lambda: timer_churn(n_calls, cancel=False,
                                            wheel=False))
    storm = attach_storm(n_ues)
    section = {
        "timer_churn": churn,
        "timer_churn_heap_baseline": baseline,
        "speedup": round(churn["events_per_sec"]
                         / baseline["events_per_sec"], 2),
        "attach_storm": storm,
    }
    if not smoke:
        # The acceptance number: fresh full-mode churn vs the pre-change
        # kernel measured under the identical workload and protocol.
        section["speedup_vs_pre_change"] = round(
            churn["events_per_sec"] / PRE_CHANGE_REFERENCE["events_per_sec"],
            2)
    return section


def check(fresh: dict, committed: dict, mode: str) -> list:
    """Compare a fresh run against the committed snapshot; returns a list
    of failure strings (empty = green)."""
    failures = []
    new = fresh.get(mode)
    old = committed.get(mode)
    if old is None:
        return [f"committed snapshot has no {mode!r} section"]
    floor = SPEEDUP_FLOOR[mode]
    if new["speedup"] < floor:
        failures.append(
            f"churn speedup {new['speedup']}x below the {mode} {floor}x floor")
    # Deterministic canaries: for a fixed workload these are exact, so any
    # divergence is a real behaviour change, not noise.
    new_hw = new["timer_churn"]["heap_high_water"]
    old_hw = old["timer_churn"]["heap_high_water"]
    if new_hw > (1 + REGRESSION_TOLERANCE) * old_hw:
        failures.append(
            f"churn heap high-water regressed >20%: {new_hw} vs committed "
            f"{old_hw}")
    if new["timer_churn"]["drained_at"] != old["timer_churn"]["drained_at"]:
        failures.append(
            "churn drain time changed: "
            f"t={new['timer_churn']['drained_at']} vs committed "
            f"t={old['timer_churn']['drained_at']} (cancelled timers "
            "extending run-until-drain again?)")
    if new["attach_storm"]["successes"] != old["attach_storm"]["successes"]:
        failures.append(
            "attach-storm determinism canary changed: "
            f"{new['attach_storm']['successes']} successes vs committed "
            f"{old['attach_storm']['successes']} (event order perturbed?)")
    new_pending = new["attach_storm"]["pending_after_drain"]
    old_pending = old["attach_storm"]["pending_after_drain"]
    if new_pending != old_pending:
        failures.append(
            f"attach storm pending-after-drain changed: {new_pending} vs "
            f"committed {old_pending} (timers rotting past completion?)")
    if os.environ.get("BENCH_STRICT"):
        new_eps = new["timer_churn"]["events_per_sec"]
        old_eps = old["timer_churn"]["events_per_sec"]
        if new_eps < (1 - REGRESSION_TOLERANCE) * old_eps:
            failures.append(
                f"churn events/sec regressed >20%: {new_eps} vs committed "
                f"{old_eps}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI (writes the 'smoke' section)")
    parser.add_argument("--all", action="store_true",
                        help="run both smoke and full modes")
    parser.add_argument("--out", default=None,
                        help="write the fresh snapshot JSON here")
    parser.add_argument("--check", default=None, metavar="SNAPSHOT",
                        help="compare against a committed snapshot; exit 1 "
                             "on >20%% regression")
    args = parser.parse_args(argv)

    snapshot = {"schema": 1, "pre_change_reference": PRE_CHANGE_REFERENCE}
    modes = ["smoke", "full"] if args.all else (
        ["smoke"] if args.smoke else ["full"])
    for mode in modes:
        print(f"== {mode} ==")
        snapshot[mode] = run_mode(smoke=(mode == "smoke"))
        section = snapshot[mode]
        churn = section["timer_churn"]
        base = section["timer_churn_heap_baseline"]
        storm = section["attach_storm"]
        print(f"  timer churn   : {churn['events_per_sec']:>12,} events/sec  "
              f"(heap baseline {base['events_per_sec']:,}; "
              f"{section['speedup']}x)")
        print(f"  heap high-water: {churn['heap_high_water']:>11,} entries  "
              f"(heap baseline {base['heap_high_water']:,})")
        print(f"  drained at    : t={churn['drained_at']:g}s  "
              f"(heap baseline t={base['drained_at']:g}s)")
        print(f"  attach storm  : {storm['wall_seconds']}s wall, "
              f"{storm['successes']} successes")

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
