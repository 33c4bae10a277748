"""The four whole-stack workloads (see README.md for why each exists).

Every workload is built from ``--seed`` by this file alone: the program
under test sees only public constructors, generated subscribers and
named RNG streams.  Host side each one is a closed loop — one process,
one thread, a fixed amount of work run as fast as it goes — so the
timed section's wall clock *is* throughput.

A workload object has three phases the rep driver times separately:

- ``__init__(seed, params, ref)`` — set-up: build the deployment,
  provision, warm up (first check-in round / steady-state phase mix);
- ``run(spans)`` — the timed section, one driver span per call made;
- ``results()`` — outputs read from public state after the clock
  stopped: correctness checks, op counts, exact layer counts, simulated
  latency samples.

``counts`` are cumulative counters read at the end of set-up and again
after the run; the rep reports the difference, so they cover the timed
section only.  ``gauges`` are read once, at the end.

``ref`` is the rep's :class:`speedref.SpeedReference`; every phase calls
``ref.tick()`` at each natural step so host seconds can be normalised.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List

from repro.core.agw import (
    VIRTUAL_8VCPU,
    AccessGateway,
    AgwConfig,
    CheckpointStore,
    SubscriberProfile,
)
from repro.core.orchestrator import Orchestrator
from repro.core.policy import PolicyRule
from repro.core.sync import SYNC_LABELS, DigestMirror, ReconcileClient
from repro.experiments.common import subscriber_keys
from repro.fiveg import Gnb, Ue5g
from repro.lte import CellConfig, Enodeb, Ue, make_imsi
from repro.net import Network, backhaul
from repro.obs import FlightRecorder, Tracer
from repro.sim import Monitor, RngRegistry, Simulator
from repro.wifi import WifiAp
from repro.workloads.fleet import AgwFleetAdapter, CohortSpec, UeFleet

from layertrace import SpanLog
from speedref import SpeedReference

#: Frozen once committed (README.md, "Sizes and bounds are frozen"): a
#: ``full`` rep is 1.1-1.5 s of timed section on the 2-core reference box,
#: so one ``--seconds 14`` run fits six to nine reps plus the counted pass.
PARAMS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "fleet_e2e": dict(
            agws=16, sampled_per_agw=64, cohort_per_agw=500, shards=8,
            sim_seconds=100.0, outage_seconds=20.0, slices=10),
        "signalling_multirat": dict(
            lte_ues=300, enbs=4, nr_ues=100, wifi_clients=100,
            think_seconds=8.0, warmup_seconds=40.0, sim_seconds=70.0,
            slices=7),
        "sync_checkin_storm": dict(
            subscribers=2000, gateways=400, shards=8, rounds=12,
            add_rounds=(9, 10), delete_rounds=(11,), health_every=4),
        "sync_publish_churn": dict(
            subscribers=2000, gateways=30, shards=8, rounds=5,
            adds=100, deletes=50, joins=1),
    },
    # <= 2 s per rep, for tests only; smoke numbers are never reported.
    "smoke": {
        "fleet_e2e": dict(
            agws=4, sampled_per_agw=8, cohort_per_agw=200, shards=2,
            sim_seconds=60.0, outage_seconds=10.0, slices=4),
        "signalling_multirat": dict(
            lte_ues=24, enbs=2, nr_ues=8, wifi_clients=8,
            think_seconds=4.0, warmup_seconds=10.0, sim_seconds=30.0,
            slices=3),
        "sync_checkin_storm": dict(
            subscribers=200, gateways=40, shards=2, rounds=4,
            add_rounds=(1,), delete_rounds=(2,), health_every=2),
        "sync_publish_churn": dict(
            subscribers=300, gateways=6, shards=2, rounds=3,
            adds=20, deletes=10, joins=1),
    },
}

NETWORK_ID = "default"
#: AGW -> orchestrator links cycle through these: the paper's deployments
#: sit behind whatever backhaul the site has (§3.4), and the lossy ones
#: keep RPC retransmission in the measured path without failing a call.
BACKHAULS = (backhaul.fiber, backhaul.microwave, backhaul.satellite)
#: Wait after a page before checking the UE came back from ECM-IDLE.
PAGE_WAIT_SECONDS = 2.0
MIN_THINK_SECONDS = 1.0


def subscriber_base(seed: int) -> int:
    """First subscriber index of a seed's population: different seeds get
    different IMSIs and keys, hence different digest-tree buckets."""
    return (seed % 4000) * 1_000_000 + 1


def profile_of(index: int) -> SubscriberProfile:
    """The index-th test subscriber (deterministic IMSI and keys)."""
    imsi = make_imsi(index)
    k, opc = subscriber_keys(index)
    return SubscriberProfile(imsi=imsi, k=k, opc=opc,
                             wifi_secret=f"wifi-{imsi}")


def sum_stats(stats: Iterable[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for one in stats:
        for key, value in one.items():
            total[key] = total.get(key, 0) + value
    return total


def _noop() -> None:
    pass


class EventCounter:
    """Entries the kernel has scheduled so far: its sequence counter, read
    off the handle of a probe that is revoked at once (the counter's own
    earlier probes are not counted)."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.probes = 0

    def read(self) -> int:
        probe = self.sim.schedule(0.0, _noop)
        probe.cancel()
        self.probes += 1
        return probe.seq - (self.probes - 1)


def run_stepwise(sim: Simulator, until: float, ref: SpeedReference) -> None:
    """``sim.run`` to ``until`` in one-sim-second hops (10-20 ms of host
    time at full size), ticking the speed reference between hops."""
    while sim.now < until:
        sim.run(until=min(until, sim.now + 1.0))
        ref.tick()


def store_roots(orc: Orchestrator) -> Dict[str, int]:
    return {label: orc.digests.root(label) for label in SYNC_LABELS}


def statesync_counts(orc: Orchestrator) -> Dict[str, float]:
    stats = sum_stats(shard.statesync.stats for shard in orc.shards)
    return {f"core.orchestrator.statesync.{key}": stats[key] for key in (
        "checkins", "config_pushes", "digest_syncs", "digest_elisions",
        "reconcile_requests", "reconcile_upserts", "reconcile_tombstones",
        "tx_bytes", "rx_bytes", "bundle_rebuilds")}


def metricsd_series(orc: Orchestrator) -> int:
    return sum(len(orc.metricsd.label_sets(name))
               for name in orc.metricsd.series_names())


# -- fleet_e2e ------------------------------------------------------------------


class FleetE2E:
    """Real AGWs with eNodeBs, sampled coroutine UEs and one cohort fleet,
    all checking in to a sharded orchestrator with observability on; one
    northbound publish, one AGW crash and recovery inside the clock."""

    rate_unit = "subscriber-sim-s/s"

    def __init__(self, seed: int, p: Dict[str, Any], ref: SpeedReference):
        self.p = p
        self.ref = ref
        sim = self.sim = Simulator()
        self.events = EventCounter(sim)
        rng = RngRegistry(seed)
        monitor = self.monitor = Monitor()
        network = Network(sim, rng)
        self.tracer = Tracer(sim, rng, sample_rate=1.0)
        self.recorder = FlightRecorder(sim)
        orc = self.orc = Orchestrator(sim, network, "orc", monitor=monitor,
                                      num_shards=p["shards"])
        checkpoints = CheckpointStore()
        config = AgwConfig(hardware=VIRTUAL_8VCPU, checkin_interval=5.0)
        index = subscriber_base(seed)
        self.next_index = index + p["agws"] * p["sampled_per_agw"]
        self.agws: List[AccessGateway] = []
        self.ues: List[List[Ue]] = []       # per AGW
        enbs = []
        for i in range(p["agws"]):
            node = f"agw-{i}"
            orc_node = orc.shard_node_for(node)
            network.connect(node, orc_node,
                            BACKHAULS[i % len(BACKHAULS)](f"bh-{i}"))
            agw = AccessGateway(sim, network, node, config=config,
                                orchestrator_node=orc_node,
                                checkpoint_store=checkpoints,
                                monitor=monitor, rng=rng)
            network.connect(f"enb-{i}", node, backhaul.lan(f"lan-{i}"))
            enb = Enodeb(sim, network, f"enb-{i}", node)
            ues = []
            for _ in range(p["sampled_per_agw"]):
                profile = profile_of(index)
                orc.add_subscriber(profile)
                ues.append(Ue(sim, profile.imsi, profile.k, profile.opc, enb))
                index += 1
            self.agws.append(agw)
            self.ues.append(ues)
            enbs.append(enb)
            ref.tick()
        orc.upsert_policy(PolicyRule(policy_id="default"))
        for agw in self.agws:
            agw.start()
        for enb in enbs:
            enb.s1_setup()
        # bench_fleet's per-UE dynamics at 3x the rates, so a 100 sim-s run
        # yields >= 1,000 sampled attaches while each AGW's cohort stays
        # under half its 32 attach/s capacity (nothing is shed).
        self.cohort = CohortSpec(
            "subs", size=p["agws"] * p["cohort_per_agw"], attach_rate=0.03,
            detach_rate=0.006, idle_rate=0.015, resume_rate=0.06,
            traffic_mbps=0.01)
        self.fleet = UeFleet(sim, rng,
                             [AgwFleetAdapter(agw) for agw in self.agws],
                             [self.cohort], monitor=monitor, tick=1.0,
                             name="bench")
        self.fleet.add_sample_ues(
            "subs", [ue for ues in self.ues for ue in ues])
        # Warm-up: S1 up everywhere and the first check-in round done, so
        # every gateway enters the clock holding the provisioned bundle.
        run_stepwise(sim, 2 * config.checkin_interval, ref)
        if not all(enb.s1_ready for enb in enbs):
            raise RuntimeError("S1 setup did not complete during warm-up")
        if any(agw.magmad.config_version != orc.store.version
               for agw in self.agws):
            raise RuntimeError("first check-in round did not converge")
        self.victim = p["agws"] // 3
        self.t0 = sim.now
        self.fleet.start()

    def run(self, spans: SpanLog) -> None:
        sim, p = self.sim, self.p
        duration = p["sim_seconds"]
        victim = self.agws[self.victim]

        def spanned(name, call):
            def fire():
                with spans.span(name):
                    call()
            return fire

        sim.schedule_at(self.t0 + duration / 3,
                        spanned("agw.crash", victim.crash))
        sim.schedule_at(self.t0 + duration / 3 + p["outage_seconds"],
                        spanned("agw.recover", victim.recover))
        sim.schedule_at(
            self.t0 + duration / 2,
            spanned("orc.add_subscriber", lambda: self.orc.add_subscriber(
                profile_of(self.next_index))))
        for i in range(1, p["slices"] + 1):
            with spans.span(f"sim.run[{i}]"):
                run_stepwise(sim, self.t0 + duration * i / p["slices"],
                             self.ref)
            with spans.span(f"orc.health[{i}]"):
                self.orc.health_report()
                self.orc.evaluate_alerts()

    def counts(self) -> Dict[str, float]:
        mme = sum_stats(agw.mme.stats for agw in self.agws)
        magmad = sum_stats(agw.magmad.stats for agw in self.agws)
        counts = {
            "sim.kernel.events": self.events.read(),
            "sim.cpu.util_samples": sum(
                self.monitor.series(name).count
                for name in list(self.monitor.names())
                if name.startswith("cpu.") and name.endswith(".util")),
            "workloads.fleet.attach_accepted":
                self.fleet.counters["attach_accepted"],
            "workloads.fleet.attach_rejected":
                self.fleet.counters["attach_rejected"],
            "obs.tracing.spans": self.tracer.stats["spans"],
            "obs.flightrec.records": self.recorder.stats["records"],
            "magmad.reconciles": magmad["reconciles"],
            "magmad.configs_applied": magmad["configs_applied"],
        }
        for key in ("attach_requests", "attach_accepted", "attach_rejected",
                    "overload_drops"):
            counts[f"core.agw.mme.{key}"] = mme[key]
        for key in ("checkins_ok", "checkins_failed", "reconcile_rounds",
                    "metrics_buffered", "checkpoints"):
            counts[f"core.agw.magmad.{key}"] = magmad[key]
        counts.update(statesync_counts(self.orc))
        return counts

    def results(self, counts: Dict[str, float]) -> Dict[str, Any]:
        orc, fleet, p = self.orc, self.fleet, self.p
        roots = store_roots(orc)
        unconverged = [
            agw.node for agw in self.agws
            if agw.crashed or agw.magmad.config_version != orc.store.version
            or agw.magmad.mirror.roots() != roots]
        per_imsi = [len(agw.sessiond.active_sessions()) for agw in self.agws]
        fleet_sessions = sum(agw.sessiond.session_count() - n
                             for agw, n in zip(self.agws, per_imsi))
        checks = {
            "gateways_on_store_version_and_roots": not unconverged,
            "fleet_population_conserved":
                fleet.population() == self.cohort.size
                and 0 <= fleet.connected() <= fleet.attached()
                <= self.cohort.size,
            "sessions_agree_across_sessiond_mobilityd_pipelined_fleet":
                all(agw.mobilityd.assigned_count == n
                    and agw.pipelined.session_count() == n
                    for agw, n in zip(self.agws, per_imsi))
                and fleet_sessions == fleet.attached(),
        }
        # A sampled attach that fails on the AGW the benchmark crashed is
        # the injected fault doing its job; anywhere else it is a failure.
        refused = sum(ue.stats["attach_failures"]
                      for ue in self.ues[self.victim])
        failed_attaches = sum(
            ue.stats["attach_failures"]
            for i, ues in enumerate(self.ues) if i != self.victim
            for ue in ues)
        sampled_attempts = sum(ue.stats["attach_attempts"]
                               for ues in self.ues for ue in ues)
        checkins = (counts["core.agw.magmad.checkins_ok"]
                    + counts["core.agw.magmad.checkins_failed"])
        attempted = (sampled_attempts - refused
                     + fleet.counters["attach_attempts"] + checkins
                     + len(self.agws))
        failed = (failed_attaches + fleet.counters["attach_rejected"]
                  + counts["core.agw.magmad.checkins_failed"]
                  + len(unconverged))
        lags = list(self.monitor.series("sync.convergence.lag_s")
                    .between(self.t0, float("inf")).values)
        return {
            "checks": checks,
            "attempted": attempted,
            "failed": failed,
            "fault_refused_ops": refused,
            "attach_latencies_s": list(self.monitor.series(
                "bench.sample.attach_latency").values),
            "converge_lags_s": lags,
            "walks": counts["magmad.reconciles"],
            "walks_converged": counts["magmad.configs_applied"],
            "walk_rounds": counts["core.agw.magmad.reconcile_rounds"],
            "gauges": {
                "sim.monitor.series": len(list(self.monitor.names())),
                "core.agw.sessiond.sessions_at_end": sum(
                    agw.sessiond.session_count() for agw in self.agws),
                "core.agw.pipelined.rules_at_end": sum(
                    table["rules"] for agw in self.agws
                    for table in agw.pipelined.datapath_stats()["tables"]),
                "core.orchestrator.metricsd.series": metricsd_series(orc),
                "core.orchestrator.store.version_at_end": orc.store.version,
                "workloads.fleet.attached_at_end": fleet.attached(),
            },
            "sim_extra": {"fleet": dict(fleet.counters),
                          "sim_now": self.sim.now},
            "work": (self.cohort.size + fleet.sample_population())
            * p["sim_seconds"],
        }


# -- signalling_multirat ----------------------------------------------------------


class SignallingMultiRat:
    """One AGW, every per-UE procedure on every RAT through the real
    frontends; no orchestrator, no fleet, no tracer or recorder."""

    rate_unit = "procedures/s"

    def __init__(self, seed: int, p: Dict[str, Any], ref: SpeedReference):
        self.p = p
        self.ref = ref
        sim = self.sim = Simulator()
        self.events = EventCounter(sim)
        rng = RngRegistry(seed)
        monitor = self.monitor = Monitor()
        network = Network(sim, rng)
        agw = self.agw = AccessGateway(
            sim, network, "agw-1", config=AgwConfig(hardware=VIRTUAL_8VCPU),
            checkpoint_store=CheckpointStore(), monitor=monitor, rng=rng)
        # Cells sized to the population so no procedure can be refused for
        # radio capacity: the workload measures the core, not admission.
        cell = CellConfig(max_active_ues=max(p["lte_ues"], p["nr_ues"]))
        self.enbs = []
        for i in range(p["enbs"]):
            network.connect(f"enb-{i}", agw.node, backhaul.lan(f"lan-enb-{i}"))
            self.enbs.append(Enodeb(sim, network, f"enb-{i}", agw.node,
                                    cell_config=cell))
        network.connect("gnb-1", agw.node, backhaul.lan("lan-gnb"))
        gnb = Gnb(sim, network, "gnb-1", agw.node, cell_config=cell)
        network.connect("ap-1", agw.node, backhaul.lan("lan-ap"))
        self.ap = WifiAp(sim, network, "ap-1", agw.node,
                         max_clients=p["wifi_clients"])
        agw.start()
        for enb in self.enbs:
            enb.s1_setup()
        gnb.ng_setup()
        sim.run(until=1.0)
        if not (gnb.ng_ready and all(enb.s1_ready for enb in self.enbs)):
            raise RuntimeError("S1/NG setup did not complete")
        self.attempted = 0
        self.failed = 0
        self.latencies: List[float] = []
        # (RAT, population, think times per cycle, cycle, client factory)
        populations = (
            ("lte", p["lte_ues"], 5, self._lte_cycle,
             lambda n, sub: Ue(sim, sub.imsi, sub.k, sub.opc,
                               self.enbs[n % len(self.enbs)])),
            ("nr", p["nr_ues"], 4, self._nr_cycle,
             lambda n, sub: Ue5g(sim, sub.imsi, sub.k, sub.opc, gnb)),
            ("wifi", p["wifi_clients"], 2, self._wifi_cycle,
             lambda n, sub: sub.imsi),
        )
        index = subscriber_base(seed)
        for rat, population, thinks, cycle, make_client in populations:
            for n in range(population):
                profile = profile_of(index)
                index += 1
                agw.subscriberdb.upsert(profile)
                stream = rng.stream(f"bench.{rat}.{n}")
                # First arrival anywhere in one cycle, so the population
                # enters the clock spread over every phase instead of
                # attaching at once (which would overrun the 32 attach/s
                # profile and be shed).
                first_delay = stream.uniform(0.0,
                                             thinks * p["think_seconds"])
                sim.spawn(cycle(make_client(n, profile), stream, first_delay),
                          name=f"bench-{rat}:{profile.imsi}")
                ref.tick()
        # Warm-up: one cycle length, so the timed section is steady state.
        run_stepwise(sim, sim.now + p["warmup_seconds"], ref)
        self.t0 = sim.now

    def _op(self, ok: Any) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return bool(ok)

    def _think(self, stream):
        # Never shorter than a second: a page racing the S1 release it
        # follows is answered "already reachable", and the workload is
        # built so that no operation fails.
        return self.sim.timeout(MIN_THINK_SECONDS + stream.expovariate(
            1.0 / (self.p["think_seconds"] - MIN_THINK_SECONDS)))

    def _lte_cycle(self, ue: Ue, stream, first_delay: float):
        sim = self.sim
        yield sim.timeout(first_delay)
        while True:
            due = sim.now
            outcome = yield ue.attach()
            if self._op(outcome.success):
                self.latencies.append(sim.now - due)
                yield self._think(stream)
                ue.go_idle()
                yield self._think(stream)
                self._op(self.agw.page(ue.imsi))
                yield sim.timeout(PAGE_WAIT_SECONDS)
                if self._op(ue.is_registered):
                    yield self._think(stream)
                    target = self.enbs[(self.enbs.index(ue.enb) + 1)
                                       % len(self.enbs)]
                    self._op((yield ue.handover_to(target)))
                    yield self._think(stream)
                    self._op((yield ue.detach(switch_off=False)))
                else:
                    ue.power_cycle()
            yield self._think(stream)

    def _nr_cycle(self, ue: Ue5g, stream, first_delay: float):
        sim = self.sim
        yield sim.timeout(first_delay)
        while True:
            due = sim.now
            if self._op((yield ue.register())):
                self.latencies.append(sim.now - due)
                yield self._think(stream)
                if self._op((yield ue.establish_pdu_session())):
                    yield self._think(stream)
                    self._op((yield ue.release_pdu_session()))
                yield self._think(stream)
                ue.deregister()
            yield self._think(stream)

    def _wifi_cycle(self, username: str, stream, first_delay: float):
        sim = self.sim
        yield sim.timeout(first_delay)
        while True:
            due = sim.now
            state = yield self.ap.connect(username, f"wifi-{username}")
            if self._op(state.connected):
                self.latencies.append(sim.now - due)
                yield self._think(stream)
                self.ap.disconnect(username)
            yield self._think(stream)

    def run(self, spans: SpanLog) -> None:
        # Only procedures completing inside the clock are counted.
        self.attempted = self.failed = 0
        del self.latencies[:]
        p = self.p
        for i in range(1, p["slices"] + 1):
            with spans.span(f"sim.run[{i}]"):
                run_stepwise(
                    self.sim, self.t0 + p["sim_seconds"] * i / p["slices"],
                    self.ref)

    def counts(self) -> Dict[str, float]:
        mme = self.agw.mme.stats
        counts = {
            "sim.kernel.events": self.events.read(),
            "sim.cpu.util_samples":
                self.monitor.series(f"cpu.{self.agw.node}.util").count,
            "core.agw.magmad.checkpoints":
                self.agw.magmad.stats["checkpoints"],
        }
        for key in ("attach_requests", "attach_accepted", "attach_rejected",
                    "overload_drops"):
            counts[f"core.agw.mme.{key}"] = mme[key]
        return counts

    def results(self, counts: Dict[str, float]) -> Dict[str, Any]:
        agw = self.agw
        per_imsi = len(agw.sessiond.active_sessions())
        checks = {
            "sessions_agree_across_sessiond_mobilityd_pipelined":
                agw.sessiond.session_count() == per_imsi
                and agw.mobilityd.assigned_count == per_imsi
                and agw.pipelined.session_count() == per_imsi,
        }
        return {
            "checks": checks,
            "attempted": self.attempted,
            "failed": self.failed,
            "attach_latencies_s": list(self.latencies),
            "gauges": {
                "sim.monitor.series": len(list(self.monitor.names())),
                "core.agw.sessiond.sessions_at_end": per_imsi,
                "core.agw.pipelined.rules_at_end": sum(
                    table["rules"] for table
                    in agw.pipelined.datapath_stats()["tables"]),
            },
            "sim_extra": {"ngap": dict(agw.ngap.stats),
                          "radius": dict(agw.radius.stats),
                          "ap": dict(self.ap.stats),
                          "sim_now": self.sim.now},
            "work": self.attempted,
        }


# -- sync_* -----------------------------------------------------------------------


class SansIoGateway:
    """The gateway side of desired-state sync, with no kernel under it:
    builds the check-in a ``Magmad`` would, walks with a real
    ``ReconcileClient`` over its digest mirror, counts what it applied."""

    #: Shape of ``AccessGateway.metrics_summary()``: a few dozen scalars.
    METRIC_NAMES = tuple(f"metric_{i:02d}" for i in range(24))

    def __init__(self, orc: Orchestrator, gateway_id: str,
                 mirror: DigestMirror, config_version: int):
        self.gateway_id = gateway_id
        self.statesync = orc.shard_for(gateway_id).statesync
        self.mirror = mirror
        self.config_version = config_version
        self.metrics_seq = 0
        self.upserts = 0
        self.tombstones = 0
        self.walks = 0
        self.walks_converged = 0
        self.walk_rounds = 0

    def _apply_delta(self, label, upserts, deletes, version) -> None:
        self.upserts += len(upserts)
        self.tombstones += len(deletes)

    def checkin(self) -> str:
        """One check-in exchange; returns which path the orchestrator took
        (``idle`` / ``walk`` / ``bootstrap``)."""
        self.metrics_seq += 1
        seq = self.metrics_seq
        response = self.statesync.handle_checkin({
            "gateway_id": self.gateway_id,
            "network_id": NETWORK_ID,
            "config_version": self.config_version,
            "digest_roots": self.mirror.roots(),
            "status": {
                "node": self.gateway_id, "sessions": seq % 97,
                "subscribers_cached": len(self.mirror.trees["subscribers"]),
                "ran_devices": 2, "crashed": False,
                "health": {"healthy": True, "checks": {
                    "sessiond": True, "pipelined": True, "mobilityd": True}},
            },
            "metrics_backlog": [{
                "seq": seq, "time": float(seq),
                "metrics": {name: float(seq + i) for i, name
                            in enumerate(self.METRIC_NAMES)},
            }],
        })
        bundle = response.get("config")
        if bundle is not None:
            for label in SYNC_LABELS:
                self.mirror.rebuild(label, bundle[label])
            self.config_version = response["config_version"]
            return "bootstrap"
        if response.get("sync"):
            client = ReconcileClient(self.mirror, self._apply_delta,
                                     NETWORK_ID, self.gateway_id)
            request = client.start(response)
            while request is not None:
                request = client.feed(
                    self.statesync.handle_reconcile(request))
            outcome = client.result()
            self.walks += 1
            self.walk_rounds += outcome.rounds
            if outcome.converged:
                self.walks_converged += 1
                self.config_version = outcome.config_version
            return "walk"
        if response.get("digest_in_sync"):
            self.config_version = response["config_version"]
        return "idle"


class _SyncWorkload:
    """Shared set-up and read-out of the two sans-io sync workloads."""

    def __init__(self, seed: int, p: Dict[str, Any], ref: SpeedReference,
                 stream: str):
        self.p = p
        self.ref = ref
        self.sim = Simulator()
        self.events = EventCounter(self.sim)
        rng = RngRegistry(seed)
        self.stream = rng.stream(stream)
        self.monitor = Monitor()
        orc = self.orc = Orchestrator(
            self.sim, Network(self.sim, rng), "orc", monitor=self.monitor,
            num_shards=p["shards"])
        base = subscriber_base(seed)
        self.live = list(range(base, base + p["subscribers"]))
        self.next_index = base + p["subscribers"]
        for index in self.live:
            orc.add_subscriber(profile_of(index))
            ref.tick()
        orc.upsert_policy(PolicyRule(policy_id="default"))
        # Every converged gateway holds the same applied state, so they
        # share one mirror through copy-on-write overlays.
        shared = DigestMirror()
        for label in SYNC_LABELS:
            shared.rebuild(label, orc.store.namespace(label))
        self.gateways = [
            SansIoGateway(orc, f"gw-{seed}-{i}", shared.overlay(),
                          orc.store.version)
            for i in range(p["gateways"])]
        for gateway in self.gateways:
            if gateway.checkin() != "idle":
                raise RuntimeError("bootstrapped gateway was not in sync")
            ref.tick()
        #: ns per public call the driver makes, by kind.
        self.timings_ns: Dict[str, List[int]] = {
            "idle": [], "walk": [], "bootstrap": [], "publish": []}
        self.checkins = 0

    def _publish(self, write, *args) -> None:
        started = time.perf_counter_ns()
        write(*args)
        self.timings_ns["publish"].append(time.perf_counter_ns() - started)
        self.ref.tick()

    def _add_subscriber(self) -> None:
        self._publish(self.orc.add_subscriber, profile_of(self.next_index))
        self.live.append(self.next_index)
        self.next_index += 1

    def _delete_subscriber(self) -> None:
        victim = self.live.pop(self.stream.randrange(len(self.live)))
        self._publish(self.orc.delete_subscriber, make_imsi(victim))

    def _checkin_round(self) -> None:
        timings = self.timings_ns
        clock = time.perf_counter_ns
        for gateway in self.gateways:
            started = clock()
            kind = gateway.checkin()
            timings[kind].append(clock() - started)
            self.ref.tick()
        self.checkins += len(self.gateways)

    def counts(self) -> Dict[str, float]:
        counts = {"sim.kernel.events": self.events.read()}
        counts.update(statesync_counts(self.orc))
        return counts

    def results(self, counts: Dict[str, float]) -> Dict[str, Any]:
        orc = self.orc
        roots = store_roots(orc)
        unconverged = sum(
            1 for gateway in self.gateways
            if gateway.config_version != orc.store.version
            or gateway.mirror.roots() != roots)
        walks = sum(g.walks for g in self.gateways)
        converged = sum(g.walks_converged for g in self.gateways)
        checks = {
            "gateways_on_store_version_and_roots": not unconverged,
            "deltas_applied_equal_deltas_shipped":
                sum(g.upserts for g in self.gateways)
                == counts["core.orchestrator.statesync.reconcile_upserts"]
                and sum(g.tombstones for g in self.gateways)
                == counts["core.orchestrator.statesync.reconcile_tombstones"],
            "every_checkin_registered":
                self.checkins
                == counts["core.orchestrator.statesync.checkins"],
        }
        return {
            "checks": checks,
            "attempted": self.checkins + len(self.gateways),
            "failed": (walks - converged) + unconverged,
            "walks": walks,
            "walks_converged": converged,
            "walk_rounds": sum(g.walk_rounds for g in self.gateways),
            "timings_ns": self.timings_ns,
            "gauges": {
                "sim.monitor.series": len(list(self.monitor.names())),
                "core.orchestrator.metricsd.series": metricsd_series(orc),
                "core.orchestrator.store.version_at_end": orc.store.version,
            },
            "sim_extra": {"roots": {label: f"{root:x}"
                                    for label, root in roots.items()}},
            "work": self._work(),
        }


class SyncCheckinStorm(_SyncWorkload):
    """Read-mostly sync: many gateways, mostly idle check-ins, a handful
    of single-key changes each answered by a narrow digest walk."""

    rate_unit = "check-ins/s"

    def __init__(self, seed: int, p: Dict[str, Any], ref: SpeedReference):
        super().__init__(seed, p, ref, "bench.storm")

    def run(self, spans: SpanLog) -> None:
        p = self.p
        for rnd in range(p["rounds"]):
            if rnd in p["add_rounds"]:
                with spans.span(f"orc.add_subscriber[{rnd}]"):
                    self._add_subscriber()
            if rnd in p["delete_rounds"]:
                with spans.span(f"orc.delete_subscriber[{rnd}]"):
                    self._delete_subscriber()
            with spans.span(f"checkin_round[{rnd}]"):
                self._checkin_round()
            if rnd % p["health_every"] == p["health_every"] - 1:
                with spans.span(f"orc.health[{rnd}]"):
                    self.orc.health_report()

    def _work(self) -> int:
        return self.checkins


class SyncPublishChurn(_SyncWorkload):
    """The same layer used for writes: northbound bursts, many-leaf
    deltas, first-contact bundles, a shard checkpoint/restore."""

    rate_unit = "publishes/s"

    def __init__(self, seed: int, p: Dict[str, Any], ref: SpeedReference):
        super().__init__(seed, p, ref, "bench.churn")
        self.seed = seed

    def run(self, spans: SpanLog) -> None:
        p, orc = self.p, self.orc
        for rnd in range(p["rounds"]):
            with spans.span(f"publish_burst[{rnd}]"):
                for _ in range(p["adds"]):
                    self._add_subscriber()
                for _ in range(p["deletes"]):
                    self._delete_subscriber()
                self._publish(orc.upsert_policy, PolicyRule(
                    policy_id="default", rate_limit_mbps=float(rnd + 1)))
            # Brand-new gateways: version 0, empty mirror -> full bundle.
            for j in range(p["joins"]):
                self.gateways.append(SansIoGateway(
                    orc, f"gw-{self.seed}-join-{rnd}-{j}", DigestMirror(), 0))
            if rnd == p["rounds"] // 2:
                with spans.span("statesync.checkpoint_restore"):
                    statesync = orc.shards[0].statesync
                    statesync.restore(statesync.checkpoint())
            with spans.span(f"checkin_round[{rnd}]"):
                self._checkin_round()

    def _work(self) -> int:
        return len(self.timings_ns["publish"])


WORKLOADS = {
    "fleet_e2e": FleetE2E,
    "signalling_multirat": SignallingMultiRat,
    "sync_checkin_storm": SyncCheckinStorm,
    "sync_publish_churn": SyncPublishChurn,
}
