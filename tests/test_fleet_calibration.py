"""Calibration: cohort-aggregated fleet vs full-coroutine population.

The fleet's fidelity claim (DESIGN.md §6.4) is that aggregation keeps
*counts* honest: a cohort advanced by batched binomial draws must land on
the same attached population as the same subscribers run as individual
coroutine UEs through the real NAS stack, up to binomial noise and the
coroutines' procedure latency.

Both legs share one tick dynamic — attach at ``ATTACH_RATE`` from
detached, detach at ``DETACH_RATE`` from connected — and one analytic
steady state:

    attached(T)/N -> a/(a+d) * (1 - exp(-(a+d)T))

With N=500, a=0.008/s, d=0.002/s, T=400s the expected attached fraction
is 0.80 * (1 - e^-4) ~= 0.785 (~393 UEs), with binomial standard
deviation sqrt(N * f * (1-f)) ~= 9.2 UEs.  The stated tolerance is
TOLERANCE_UES = 45 (~5 standard deviations plus room for the coroutine
leg's nonzero attach latency); both legs must also sit within
TOLERANCE_UES of the analytic expectation.  Runs are fully seeded, so the
observed values are deterministic — the tolerance covers model error,
not run-to-run variance.
"""

import math

from repro.core.agw import VIRTUAL_8VCPU, AgwConfig
from repro.deploy import build
from repro.workloads.fleet import AgwFleetAdapter, CohortSpec, UeFleet

NUM_UES = 500
ATTACH_RATE = 0.008          # per-second, detached -> connected
DETACH_RATE = 0.002          # per-second, connected -> detached
DURATION = 400.0
TICK = 1.0
SEED = 42
TOLERANCE_UES = 45

# Plenty of attach capacity (32/s) so neither leg is admission-limited:
# the comparison is about population dynamics, not overload behaviour.
CONFIG = AgwConfig(hardware=VIRTUAL_8VCPU)
# Enough cells that the 96-active-UE RRC cap (radio.py §4.1 arithmetic)
# never binds on the coroutine leg: 6 x 96 = 576 > 500.
NUM_ENBS = 6


def _cohort(size):
    return CohortSpec("calib", size=size, attach_rate=ATTACH_RATE,
                      detach_rate=DETACH_RATE)


def _run_aggregate():
    site = build(num_enbs=NUM_ENBS, num_ues=0, seed=SEED,
                 config=CONFIG)
    fleet = UeFleet(site.sim, site.rng, [AgwFleetAdapter(site.agw)],
                    [_cohort(NUM_UES)], tick=TICK)
    fleet.start()
    site.sim.run(until=DURATION)
    return fleet, site


def _run_coroutines():
    site = build(num_enbs=NUM_ENBS, num_ues=NUM_UES, seed=SEED,
                 config=CONFIG)
    # size=0 cohort + a 100% sample population: the same UeFleet tick
    # drives every subscriber through the real per-UE attach/detach
    # procedures instead of the aggregate table.
    fleet = UeFleet(site.sim, site.rng, [AgwFleetAdapter(site.agw)],
                    [_cohort(0)], tick=TICK)
    fleet.add_sample_ues("calib", site.ues)
    fleet.start()
    site.sim.run(until=DURATION)
    return fleet, site


def _analytic_attached():
    total_rate = ATTACH_RATE + DETACH_RATE
    fraction = (ATTACH_RATE / total_rate
                * -math.expm1(-total_rate * DURATION))
    return NUM_UES * fraction


def test_fleet_matches_coroutine_population():
    aggregate, agg_site = _run_aggregate()
    coroutine, cor_site = _run_coroutines()

    agg_attached = aggregate.attached()
    cor_attached = coroutine.sample_attached()
    expected = _analytic_attached()

    # Both legs within the stated tolerance of the analytic expectation...
    assert abs(agg_attached - expected) <= TOLERANCE_UES
    assert abs(cor_attached - expected) <= TOLERANCE_UES
    # ...and of each other.
    assert abs(agg_attached - cor_attached) <= TOLERANCE_UES

    # Both legs show up in AGW accounting: sessiond carries the attached
    # population.  The aggregate leg matches exactly; the coroutine leg
    # may have a handful of procedures in flight at the cutoff.
    assert agg_site.agw.sessiond.session_count() == agg_attached
    assert abs(cor_site.agw.sessiond.session_count() - cor_attached) <= 5

    # The coroutine leg exercised real procedures, not the bulk path.
    assert coroutine.counters["sample_attach_successes"] > 0
    assert aggregate.counters["attach_accepted"] > 0
    assert cor_site.agw.mme.stats["attach_accepted"] >= cor_attached


def test_fleet_calibration_deterministic():
    first, _site1 = _run_aggregate()
    second, _site2 = _run_aggregate()
    assert first.summary() == second.summary()
