"""The Magma orchestrator: central point of control (§3.2).

Composes the durable config store, state-sync service, metrics store
and alert manager, and exposes the *northbound API* that operators (and
their OSS/BSS systems) integrate with.  All configuration
mutations flow through here - AGWs never write config state (§3.4).

The control plane is N >= 1 shards (default one), each a ``StateSync``
with its own metrics store, CPU model and network node, so the §4.3.2
scaling study can measure control-plane load as a function of gateway
count.  Gateways are partitioned by consistent hash of ``gateway_id``
(``repro.core.sync.shard``); check-ins arriving at the main node are
routed in-process to the owning shard, and gateways may also address
their shard's node directly (``shard_node_for``).  The config store stays
single-writer on the main node, whose CPU carries the northbound writes -
shards serve reads of it, which is the real orchestrator's
stateless-service-over-shared-DB shape.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from ...net.rpc import RpcServer
from ...net.simnet import Network
from ...sim.cpu import CpuModel
from ...sim.kernel import Simulator
from ...sim.monitor import Monitor, counter_rise
from ..agw.subscriberdb import SubscriberProfile
from ..policy.rules import PolicyRule
from ..sync import (
    ConsistentHashRing,
    DigestIndex,
    MergedGatewayView,
    MergedMetricsView,
)
from .alerting import AlertManager, AlertRule
from .config_store import ConfigStore
from .metricsd import Metricsd
from .statesync import (
    DEFAULT_NETWORK,
    NS_POLICIES,
    NS_RAN,
    NS_SUBSCRIBERS,
    ConvergenceTracker,
    StateSync,
    scoped,
)

#: Cores of the cluster (~3 modest VMs of the minimal deploy), split
#: evenly across the shards; the main node has its own CPU of this size.
CORES = 12.0
#: Per-operation CPU costs, in core-seconds.
CHECKIN_CPU_COST = 0.002
METRICS_CPU_COST_PER_SAMPLE = 0.0002
CONFIG_PUSH_CPU_COST = 0.01
RECONCILE_CPU_COST = 0.003
NORTHBOUND_CPU_COST = 0.005
#: Seconds without a check-in before a gateway counts as offline.
OFFLINE_THRESHOLD = 300.0


class OrchestratorShard:
    """One horizontal slice of the control plane: its own state-sync
    registry, metrics store, CPU, and RPC endpoint."""

    def __init__(self, shard_id: str, node: str, statesync: StateSync,
                 metricsd: Metricsd, cpu: CpuModel, server: RpcServer):
        self.shard_id = shard_id
        self.node = node
        self.statesync = statesync
        self.metricsd = metricsd
        self.cpu = cpu
        self.server = server


class Orchestrator:
    """The central controller, reachable at a network node."""

    def __init__(self, sim: Simulator, network: Network, node: str = "orc",
                 monitor: Optional[Monitor] = None, num_shards: int = 1):
        self.sim = sim
        self.network = network
        self.node = node
        self.monitor = monitor or Monitor()
        # Raises ValueError for num_shards < 1.
        self.ring = ConsistentHashRing(
            [f"{node}-s{i}" for i in range(num_shards)])
        network.add_node(node)
        self.cpu = CpuModel(sim, cores=CORES, name=node)
        self.store = ConfigStore()
        self.digests = DigestIndex(self.store)
        # Publish→all-applied lag tracker, shared by every shard's
        # StateSync; its metricsd sink is attached below.
        self.convergence = ConvergenceTracker(sim, monitor=self.monitor)
        # Each shard is its own slice of the cluster's cores: the load
        # question is whether N small shards absorb what one big process
        # would, so total hardware is held constant.
        self.shards = [self._build_shard(shard_id, CORES / num_shards)
                       for shard_id in self.ring.shard_ids]
        self._shard_by_id = {s.shard_id: s for s in self.shards}
        self.statesync = MergedGatewayView([s.statesync for s in self.shards])
        self.metricsd = MergedMetricsView([s.metricsd for s in self.shards])
        # Convergence-lag samples land in the first shard's store; the
        # merged view reads across shards.
        self.convergence.metricsd = self.shards[0].metricsd
        self.alerts = AlertManager(
            clock=lambda: sim.now,
            recorder=lambda: self.sim.recorder)
        self.alerts.add_rule(AlertRule(
            name="gateway-offline",
            evaluate=lambda: self.statesync.offline_gateways(
                OFFLINE_THRESHOLD),
            message="gateway has missed check-ins"))
        self.alerts.add_rule(AlertRule(
            name="gateway-unhealthy",
            evaluate=self._unhealthy_gateways,
            message="gateway self-reports failing health checks"))
        # Gateways the attach-rejections rule is firing for.
        self._rejecting: Set[str] = set()
        self.alerts.add_rule(AlertRule(
            name="attach-rejections",
            evaluate=self._rejecting_gateways,
            message="gateway has rejected attach attempts"))
        # Windowed health/SLO scoring over the state assembled above.
        # Deferred import: obs.health is a consumer of orchestrator state
        # and must not become a load-time dependency cycle.
        from ...obs.health import WINDOW, HealthEngine
        self.health = HealthEngine(self)
        # attach-rejections looks back over the health window.
        self._reject_window = WINDOW
        self.server = RpcServer(sim, network, node)
        self.server.register("statesync", "checkin", self._checkin_handler)
        self.server.register("statesync", "reconcile",
                             self._reconcile_handler)

    def _build_shard(self, shard_id: str, cores: float) -> OrchestratorShard:
        self.network.add_node(shard_id)
        metricsd = Metricsd()
        statesync = StateSync(self.sim, self.store, metricsd,
                              digests=self.digests,
                              convergence=self.convergence)
        cpu = CpuModel(self.sim, cores=cores, name=shard_id)
        server = RpcServer(self.sim, self.network, shard_id)
        server.register("statesync", "checkin",
                        lambda request: self._run_checkin(
                            statesync, cpu, request))
        server.register("statesync", "reconcile",
                        lambda request: self._run_reconcile(
                            statesync, cpu, request))
        return OrchestratorShard(shard_id=shard_id, node=shard_id,
                                 statesync=statesync, metricsd=metricsd,
                                 cpu=cpu, server=server)

    # -- sharding --------------------------------------------------------------------

    def shard_for(self, gateway_id: str) -> OrchestratorShard:
        """The shard owning ``gateway_id``."""
        return self._shard_by_id[self.ring.shard_for(gateway_id)]

    def shard_node_for(self, gateway_id: str) -> str:
        """The node a gateway should address its check-ins to."""
        return self.shard_for(gateway_id).node

    # -- RPC handlers ---------------------------------------------------------------

    def _checkin_handler(self, request: Dict[str, Any]):
        shard = self.shard_for(request["gateway_id"])
        return self._run_checkin(shard.statesync, shard.cpu, request)

    def _reconcile_handler(self, request: Dict[str, Any]):
        shard = self.shard_for(request["gateway_id"])
        return self._run_reconcile(shard.statesync, shard.cpu, request)

    def _run_checkin(self, statesync: StateSync, cpu: CpuModel,
                     request: Dict[str, Any]):
        samples = sum(len(entry.get("metrics", {}))
                      for entry in request.get("metrics_backlog") or ())
        cost = CHECKIN_CPU_COST + samples * METRICS_CPU_COST_PER_SAMPLE
        response = statesync.handle_checkin(request)
        if response.get("config") is not None:
            cost += CONFIG_PUSH_CPU_COST

        def proc(sim):
            yield cpu.submit("checkin", cost)
            return response

        return proc(self.sim)

    def _run_reconcile(self, statesync: StateSync, cpu: CpuModel,
                       request: Dict[str, Any]):
        response = statesync.handle_reconcile(request)

        def proc(sim):
            yield cpu.submit("reconcile", RECONCILE_CPU_COST)
            return response

        return proc(self.sim)

    # -- northbound API (operator-facing) ----------------------------------------------

    def add_subscriber(self, profile: SubscriberProfile,
                       network_id: str = DEFAULT_NETWORK) -> int:
        """Provision a subscriber network-wide; returns the config version.

        ``network_id`` selects the logical network (tenant) in multi-network
        deployments; gateways only receive their own network's config.
        """
        self._charge_northbound()
        return self._published(network_id, self.store.put(
            scoped(NS_SUBSCRIBERS, network_id), profile.imsi, profile))

    def delete_subscriber(self, imsi: str,
                          network_id: str = DEFAULT_NETWORK) -> int:
        self._charge_northbound()
        return self._published(network_id, self.store.delete(
            scoped(NS_SUBSCRIBERS, network_id), imsi))

    def subscriber_count(self, network_id: str = DEFAULT_NETWORK) -> int:
        return len(self.store.keys(scoped(NS_SUBSCRIBERS, network_id)))

    def upsert_policy(self, policy: PolicyRule,
                      network_id: str = DEFAULT_NETWORK) -> int:
        self._charge_northbound()
        return self._published(network_id, self.store.put(
            scoped(NS_POLICIES, network_id), policy.policy_id, policy))

    def delete_policy(self, policy_id: str,
                      network_id: str = DEFAULT_NETWORK) -> int:
        self._charge_northbound()
        return self._published(network_id, self.store.delete(
            scoped(NS_POLICIES, network_id), policy_id))

    def set_ran_config(self, key: str, value: Any,
                       network_id: str = DEFAULT_NETWORK) -> int:
        self._charge_northbound()
        return self._published(network_id, self.store.put(
            scoped(NS_RAN, network_id), key, value))

    def _published(self, network_id: str, version: int) -> int:
        """Note a northbound write so convergence lag is measured from it."""
        self.convergence.note_publish(network_id, version)
        return version

    def list_gateways(self) -> List[Dict[str, Any]]:
        return [{
            "gateway_id": g.gateway_id,
            "last_checkin": g.last_checkin,
            "config_version": g.config_version,
            "checkins": g.checkins,
            "status": g.status,
        } for g in self.statesync.gateways()]

    def gateway_status(self, gateway_id: str) -> Optional[Dict[str, Any]]:
        state = self.statesync.gateway(gateway_id)
        if state is None:
            return None
        return {"gateway_id": state.gateway_id,
                "last_checkin": state.last_checkin,
                "config_version": state.config_version,
                "status": state.status}

    def query_metric(self, name: str,
                     labels: Optional[Dict[str, str]] = None):
        return self.metricsd.query(name, labels)

    def health_report(self) -> Dict[str, Any]:
        """Northbound: per-AGW, per-shard, and fleet health scores.

        Each gateway is scored from its owner shard's own registry and
        metrics store, not through the merged views (``HealthEngine``).
        """
        return self.health.report()

    def evaluate_alerts(self):
        return self.alerts.evaluate()

    def _unhealthy_gateways(self) -> List[str]:
        """Gateways whose last check-in carried failing health checks."""
        unhealthy = []
        for state in self.statesync.gateways():
            health = state.status.get("health")
            if health is not None and health.get("healthy") is False:
                unhealthy.append(state.gateway_id)
        return sorted(unhealthy)

    def _rejecting_gateways(self) -> List[str]:
        """Gateways whose MME rejected an attach within the health window.

        ``attach_rejected`` is cumulative since the MME started, so a
        gateway fires while its newest sample is above a baseline: the
        newest sample captured at or before the window's start, or the
        oldest in the window when there is none.  A gateway that ships
        one sample per check-in thus fires on a rise across the window's
        edge, and resolves once the first sample to count its latest
        rejection is older than the window.  Each gateway's series is
        read once, on its owner shard, in any arrival order (back-filled
        rows can arrive late).

        A series that is *known* but has no samples in retention keeps
        its subject's previous state: no data is not evidence of
        recovery.  A label set that vanished wholesale does resolve.
        """
        since = self.sim.now - self._reject_window
        firing = self._rejecting
        seen = set()
        for shard in self.shards:
            metricsd = shard.metricsd
            for labels in metricsd.label_sets("attach_rejected"):
                subject = labels["gateway_id"]
                seen.add(subject)
                rise = counter_rise(
                    metricsd.query("attach_rejected", labels), since)
                if rise is None:
                    continue
                if rise > 0:
                    firing.add(subject)
                else:
                    firing.discard(subject)
        firing.intersection_update(seen)
        return sorted(firing)

    def _charge_northbound(self) -> None:
        self.cpu.submit("northbound", NORTHBOUND_CPU_COST)
