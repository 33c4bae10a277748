"""Units for the cohort-aggregated fleet scale-out path.

Covers the binomial sampler, the kernel's batched periodic timer, the
bounded/streaming Series mode, the AGW bulk entry points, and the UeFleet
tick machinery (conservation, determinism, rotation fairness, sampled
sub-population).
"""

import math

import pytest

from repro.core.agw import VIRTUAL_4VCPU, AgwConfig
from repro.deploy import build
from repro.experiments.scaling import AgwStub
from repro.lte.ue import UeState
from repro.sim import Monitor, RngRegistry, Simulator
from repro.sim.monitor import Series
from repro.workloads.fleet import (
    AgwFleetAdapter,
    CohortSpec,
    UeFleet,
    binomial,
)


# -- binomial sampler ----------------------------------------------------------


def test_binomial_edge_cases():
    rng = RngRegistry(1).stream("t")
    assert binomial(rng, 0, 0.5) == 0
    assert binomial(rng, 100, 0.0) == 0
    assert binomial(rng, 100, 1.0) == 100
    assert binomial(rng, -5, 0.5) == 0


@pytest.mark.parametrize("n,p", [
    (50, 0.02),       # gap-skipping regime
    (10_000, 0.5),    # normal approximation regime
    (100, 0.97),      # mirrored large-p regime
    (1_000_000, 1e-5),
])
def test_binomial_bounds_and_mean(n, p):
    rng = RngRegistry(7).stream(f"binom.{n}.{p}")
    draws = [binomial(rng, n, p) for _ in range(400)]
    assert all(0 <= d <= n for d in draws)
    mean = sum(draws) / len(draws)
    sd = math.sqrt(n * p * (1 - p))
    # 400 draws: sample mean within ~5 standard errors.
    assert abs(mean - n * p) < max(5 * sd / math.sqrt(len(draws)), 1.0)


def test_binomial_deterministic():
    a = RngRegistry(3).stream("same")
    b = RngRegistry(3).stream("same")
    assert ([binomial(a, 1000, 0.01) for _ in range(50)]
            == [binomial(b, 1000, 0.01) for _ in range(50)])


# -- schedule_periodic ---------------------------------------------------------


def test_schedule_periodic_fires_on_grid():
    sim = Simulator()
    seen = []
    call = sim.schedule_periodic(2.0, lambda: seen.append(sim.now))
    sim.run(until=9.0)
    assert seen == [2.0, 4.0, 6.0, 8.0]
    assert call.active


def test_schedule_periodic_cancel_stops_it():
    sim = Simulator()
    seen = []
    call = sim.schedule_periodic(1.0, lambda: seen.append(sim.now))
    sim.schedule(3.5, call.cancel)
    sim.run(until=10.0)
    assert seen == [1.0, 2.0, 3.0]
    assert not call.active
    assert call.cancel() is False    # second cancel is a no-op


def test_schedule_periodic_passes_args_and_validates():
    sim = Simulator()
    got = []
    sim.schedule_periodic(1.0, lambda a, b: got.append((a, b)), 1, "x")
    sim.run(until=2.5)
    assert got == [(1, "x"), (1, "x")]
    with pytest.raises(ValueError):
        sim.schedule_periodic(0.0, lambda: None)


# -- bounded Series ------------------------------------------------------------


def test_bounded_series_aggregates_exact():
    full = Series("full")
    bounded = Series("bounded", max_samples=64)
    values = [math.sin(i * 0.1) * i for i in range(10_000)]
    for i, v in enumerate(values):
        full.record(float(i), v)
        bounded.record(float(i), v)
    assert bounded.count == 10_000
    assert bounded.retained <= 64
    assert len(bounded) <= 64
    assert bounded.mean() == pytest.approx(full.mean())
    assert bounded.total() == pytest.approx(full.total())
    assert bounded.max() == full.max()
    assert bounded.min() == full.min()
    assert bounded.last() == full.last()


def test_bounded_series_decimation_keeps_span():
    s = Series("s", max_samples=16)
    for i in range(1000):
        s.record(float(i), float(i))
    # Retained samples stay sorted, span the series, and include the first.
    assert s.times == sorted(s.times)
    assert s.times[0] == 0.0
    assert s.times[-1] >= 900.0


def test_monitor_bounded_series_cap_mismatch():
    monitor = Monitor()
    s1 = monitor.bounded_series("x", max_samples=32)
    assert monitor.bounded_series("x", max_samples=32) is s1
    with pytest.raises(ValueError):
        monitor.bounded_series("x", max_samples=64)


# -- AGW bulk entry points -----------------------------------------------------


def _site(**kwargs):
    return build(num_enbs=1, num_ues=0, seed=11, **kwargs)


def test_bulk_attach_respects_capacity():
    site = _site()
    capacity = site.agw.context.config.hardware.attach_capacity_per_sec()
    accepted = site.agw.mme.bulk_attach(10_000, 1.0)
    assert accepted == int(capacity)
    assert site.agw.mme.stats["attach_rejected"] == 10_000 - accepted
    assert site.agw.sessiond.session_count() == accepted
    # Credit does not accumulate beyond one tick.
    assert site.agw.mme.bulk_attach(10_000, 1.0) <= int(capacity) + 1


def test_bulk_detach_bounded_by_sessions():
    site = _site()
    accepted = site.agw.mme.bulk_attach(3, 1.0)
    assert site.agw.mme.bulk_detach(accepted + 50) == accepted
    assert site.agw.sessiond.session_count() == 0


def test_bulk_attach_validates():
    site = _site()
    with pytest.raises(ValueError):
        site.agw.mme.bulk_attach(-1, 1.0)
    with pytest.raises(ValueError):
        site.agw.mme.bulk_attach(1, 0.0)


def test_fleet_load_drives_user_plane_demand():
    site = _site()
    pipelined, cpu = site.agw.pipelined, site.agw.context.cpu
    pipelined.set_fleet_load(100.0)
    served = cpu.fluid_work("up")[1]
    site.sim.run(until=site.sim.now + 1.0)
    assert cpu.fluid_work("up")[1] > served
    assert pipelined.datapath_metrics()["dp_fleet_offered_mbps"] == 100.0
    pipelined.set_fleet_load(0.0)
    served = cpu.fluid_work("up")[1]
    site.sim.run(until=site.sim.now + 1.0)
    assert cpu.fluid_work("up")[1] == served
    assert pipelined.datapath_metrics()["dp_fleet_offered_mbps"] == 0.0
    with pytest.raises(ValueError):
        site.agw.pipelined.set_fleet_load(-1.0)


# -- CohortSpec / UeFleet ------------------------------------------------------


def test_cohort_spec_validation():
    with pytest.raises(ValueError):
        CohortSpec("bad", size=-1)
    with pytest.raises(ValueError):
        CohortSpec("bad", size=1, attach_rate=-0.1)
    with pytest.raises(ValueError):
        CohortSpec("bad", size=1, rat="satellite")


class StubHost:
    """Infinite-capacity fleet host for pure state-machine tests."""

    def __init__(self, node):
        self.node = node
        self.sessions = 0
        self.offered = 0.0

    def fleet_attach(self, n, dt):
        self.sessions += n
        return n

    def fleet_detach(self, n):
        ended = min(n, self.sessions)
        self.sessions -= ended
        return ended

    def fleet_set_load(self, mbps):
        self.offered = mbps


def _make_fleet(seed=0, hosts=4, monitor=None):
    sim = Simulator()
    rng = RngRegistry(seed)
    fleet = UeFleet(
        sim, rng, [StubHost(f"h{i}") for i in range(hosts)],
        [CohortSpec("mobile", 10_000, attach_rate=0.02, detach_rate=0.004,
                    idle_rate=0.01, resume_rate=0.05, traffic_mbps=0.1),
         CohortSpec("iot", 6_000, attach_rate=0.003, detach_rate=0.001,
                    rat="nr")],
        monitor=monitor, tick=1.0)
    return sim, fleet


def test_fleet_conserves_population():
    sim, fleet = _make_fleet()
    fleet.start()
    sim.run(until=200.0)
    assert fleet.population() == 16_000
    summary = fleet.summary()
    assert summary["attached"] == fleet.attached()
    assert 0 < fleet.attached() < 16_000
    assert fleet.connected() <= fleet.attached()
    per_rat = fleet.per_rat()
    assert set(per_rat) == {"lte", "nr"}
    assert sum(per_rat.values()) == fleet.attached()


def test_fleet_deterministic_replay():
    sim1, fleet1 = _make_fleet(seed=9)
    fleet1.start()
    sim1.run(until=150.0)
    sim2, fleet2 = _make_fleet(seed=9)
    fleet2.start()
    sim2.run(until=150.0)
    assert fleet1.summary() == fleet2.summary()


def test_fleet_seed_changes_outcome():
    sim1, fleet1 = _make_fleet(seed=1)
    fleet1.start()
    sim1.run(until=100.0)
    sim2, fleet2 = _make_fleet(seed=2)
    fleet2.start()
    sim2.run(until=100.0)
    assert fleet1.counters != fleet2.counters


def test_fleet_start_twice_raises_and_stop_clears_load():
    sim, fleet = _make_fleet()
    fleet.start()
    with pytest.raises(RuntimeError):
        fleet.start()
    sim.run(until=50.0)
    fleet.stop()
    ticks = fleet.ticks
    for host, _buckets in fleet._by_host:
        assert host.offered == 0.0
    sim.run(until=100.0)
    assert fleet.ticks == ticks    # ticker really cancelled


def test_fleet_rotation_avoids_starvation():
    """Under a binding admission cap, every cohort makes progress."""
    sim = Simulator()
    rng = RngRegistry(4)

    class CappedHost(StubHost):
        def fleet_attach(self, n, dt):
            granted = min(n, 2)
            self.sessions += granted
            return granted

    fleet = UeFleet(
        sim, rng, [CappedHost("h0")],
        [CohortSpec("a", 5_000, attach_rate=0.05),
         CohortSpec("b", 5_000, attach_rate=0.05)],
        tick=1.0)
    fleet.start()
    sim.run(until=100.0)
    per_rat_buckets = {b.spec.name: b.attached
                      for _h, buckets in fleet._by_host for b in buckets}
    assert per_rat_buckets["a"] > 0
    assert per_rat_buckets["b"] > 0


def test_fleet_duplicate_cohort_names_rejected():
    sim = Simulator()
    rng = RngRegistry(0)
    with pytest.raises(ValueError):
        UeFleet(sim, rng, [StubHost("h")],
                [CohortSpec("x", 10), CohortSpec("x", 10)])
    with pytest.raises(ValueError):
        UeFleet(sim, rng, [], [CohortSpec("x", 10)])


def test_fleet_sampled_ues_attach_through_real_stack():
    site = build(num_enbs=2, num_ues=20, seed=13,
                 config=AgwConfig(hardware=VIRTUAL_4VCPU))
    fleet = UeFleet(
        site.sim, site.rng, [AgwFleetAdapter(site.agw)],
        [CohortSpec("pop", size=0, attach_rate=0.05, idle_rate=0.01,
                    resume_rate=0.05)],
        monitor=site.monitor, tick=1.0)
    with pytest.raises(ValueError):
        fleet.add_sample_ues("nope", site.ues)
    fleet.add_sample_ues("pop", site.ues)
    fleet.start()
    site.sim.run(until=300.0)
    assert fleet.sample_population() == 20
    assert fleet.counters["sample_attach_successes"] > 0
    assert fleet.sample_attached() > 0
    attached_states = (UeState.REGISTERED, UeState.IDLE)
    assert (sum(1 for ue in site.ues if ue.state in attached_states)
            == fleet.sample_attached())
    latency = site.monitor.series("fleet.sample.attach_latency")
    assert latency.count == fleet.counters["sample_attach_successes"]
    assert latency.mean() > 0


def test_fleet_through_real_agw_shows_in_sessiond():
    site = build(num_enbs=1, num_ues=0, seed=3,
                 config=AgwConfig(hardware=VIRTUAL_4VCPU))
    fleet = UeFleet(
        site.sim, site.rng, [AgwFleetAdapter(site.agw)],
        [CohortSpec("pop", size=2_000, attach_rate=0.01,
                    traffic_mbps=0.05)],
        tick=1.0)
    fleet.start()
    site.sim.run(until=120.0)
    assert site.agw.sessiond.session_count() == fleet.attached()
    assert site.agw.mme.stats["attach_accepted"] == fleet.attached()
    assert site.agw.context.cpu.fluid_work("up")[1] > 0


# -- scaling stubs as fleet hosts ----------------------------------------------


def test_agw_stub_fleet_host_protocol():
    from repro.net.simnet import Link, Network

    sim = Simulator()
    rng = RngRegistry(0)
    network = Network(sim, rng)
    network.add_node("orc")
    network.connect("agw-0", "orc", Link(latency=0.02))
    stub = AgwStub(sim, network, "agw-0", "orc", interval=60.0, offset=0.0)
    accepted = stub.fleet_attach(1_000, 1.0)
    assert accepted == 16     # virtual-profile capacity
    assert stub.sessions == accepted
    assert stub.fleet_detach(5) == 5
    assert stub.sessions == accepted - 5
    stub.fleet_set_load(50.0)
    assert 0.05 < stub.cpu_util() <= 1.0
