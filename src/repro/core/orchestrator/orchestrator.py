"""The Magma orchestrator: central point of control (§3.2).

Composes the durable config store, state-sync service, metrics store,
bootstrapper, and alert manager, and exposes the *northbound API* that
operators (and their OSS/BSS systems) integrate with.  All configuration
mutations flow through here - AGWs never write config state (§3.4).

The orchestrator has its own CPU model so the §4.3.2 scaling study can
measure control-plane load as a function of gateway count.

**Scale-out** (``num_shards > 0``): the control plane splits into N
``StateSync`` shards, each with its own metrics store, CPU model, and
network node.  Gateways are partitioned by consistent hash of
``gateway_id`` (``repro.core.sync.shard``); check-ins arriving at the
main node are routed to the owning shard, and gateways may also address
their shard's node directly (``shard_node_for``).  The config store stays
single-writer on the main node - shards serve reads of it, which is the
real orchestrator's stateless-service-over-shared-DB shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from ...net.rpc import RpcError, RpcServer
from ...net.simnet import Network
from ...sim.cpu import CpuModel
from ...sim.kernel import Simulator
from ...sim.monitor import Monitor
from ..agw.subscriberdb import SubscriberProfile
from ..policy.rules import PolicyRule
from ..sync import (
    ConsistentHashRing,
    DigestIndex,
    MergedGatewayView,
    MergedMetricsView,
    ShardRouter,
)
from .alerting import AlertManager, AlertRule, metric_threshold_rule
from .bootstrapper import Bootstrapper, BootstrapError
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


@dataclass
class OrchestratorConfig:
    """Sizing and per-operation CPU costs for the orchestrator cluster."""

    cores: float = 12.0              # ~3 modest VMs of the minimal deploy
    checkin_cpu_cost: float = 0.002
    metrics_cpu_cost_per_sample: float = 0.0002
    config_push_cpu_cost: float = 0.01
    reconcile_cpu_cost: float = 0.003
    northbound_cpu_cost: float = 0.005
    offline_threshold: float = 300.0


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
                 config: Optional[OrchestratorConfig] = None,
                 monitor: Optional[Monitor] = None,
                 num_shards: int = 0):
        self.sim = sim
        self.network = network
        self.node = node
        self.config = config or OrchestratorConfig()
        self.monitor = monitor or Monitor()
        self.num_shards = num_shards
        network.add_node(node)
        self.cpu = CpuModel(sim, cores=self.config.cores, name=node)
        self.store = ConfigStore()
        self.digests = DigestIndex(self.store)
        # Publish→all-applied lag tracker, shared by every shard's
        # StateSync; its metricsd sink is attached below once one exists.
        self.convergence = ConvergenceTracker(sim, monitor=self.monitor)
        self.shards: List[OrchestratorShard] = []
        self.router: Optional[ShardRouter] = None
        if num_shards > 0:
            # Each shard is its own slice of the cluster's cores: the load
            # question is whether N small shards absorb what one big
            # process would, so total hardware is held constant.
            shard_cores = self.config.cores / num_shards
            for i in range(num_shards):
                shard_node = f"{node}-s{i}"
                network.add_node(shard_node)
                shard_metricsd = Metricsd()
                shard_sync = StateSync(sim, self.store, shard_metricsd,
                                       digests=self.digests,
                                       monitor=self.monitor,
                                       convergence=self.convergence)
                shard_cpu = CpuModel(sim, cores=shard_cores, name=shard_node)
                shard_server = RpcServer(sim, network, shard_node)
                shard_server.register(
                    "statesync", "checkin",
                    self._make_checkin_handler(shard_sync, shard_cpu))
                shard_server.register(
                    "statesync", "reconcile",
                    self._make_reconcile_handler(shard_sync, shard_cpu))
                self.shards.append(OrchestratorShard(
                    shard_id=shard_node, node=shard_node,
                    statesync=shard_sync, metricsd=shard_metricsd,
                    cpu=shard_cpu, server=shard_server))
            ring = ConsistentHashRing([s.shard_id for s in self.shards])
            self.router = ShardRouter(ring,
                                      {s.shard_id: s for s in self.shards})
            self.statesync: Union[StateSync, MergedGatewayView] = \
                MergedGatewayView([s.statesync for s in self.shards])
            self.metricsd: Union[Metricsd, MergedMetricsView] = \
                MergedMetricsView([s.metricsd for s in self.shards])
        else:
            self.metricsd = Metricsd()
            self.statesync = StateSync(sim, self.store, self.metricsd,
                                       digests=self.digests,
                                       monitor=self.monitor,
                                       convergence=self.convergence)
        # Convergence-lag samples land in one concrete store: the first
        # shard's when sharded (the merged view reads across shards), the
        # single store otherwise.
        self.convergence.metricsd = self.shards[0].metricsd \
            if self.shards else self.metricsd
        self.bootstrapper = Bootstrapper(clock=lambda: sim.now)
        self.alerts = AlertManager(
            clock=lambda: sim.now,
            recorder=lambda: self.sim.recorder)
        self.alerts.add_rule(AlertRule(
            name="gateway-offline",
            evaluate=lambda: self.statesync.offline_gateways(
                self.config.offline_threshold),
            message="gateway has missed check-ins"))
        self.alerts.add_rule(AlertRule(
            name="gateway-unhealthy",
            evaluate=self._unhealthy_gateways,
            message="gateway self-reports failing health checks"))
        self.alerts.add_rule(metric_threshold_rule(
            self.metricsd, name="attach-rejections",
            metric="attach_rejected", threshold=0.0, above=True,
            message="gateway has rejected attach attempts"))
        # Windowed health/SLO scoring over the state assembled above.
        # Deferred import: obs.health is a consumer of orchestrator state
        # and must not become a load-time dependency cycle.
        from ...obs.health import HealthEngine
        self.health = HealthEngine(self)
        self.server = RpcServer(sim, network, node)
        self.server.register("statesync", "checkin", self._checkin_handler)
        self.server.register("statesync", "reconcile",
                             self._reconcile_handler)
        self.server.register("bootstrap", "challenge", self._challenge_handler)
        self.server.register("bootstrap", "complete", self._complete_handler)

    # -- sharding --------------------------------------------------------------------

    def shard_for(self, gateway_id: str) -> Optional[OrchestratorShard]:
        """The shard owning ``gateway_id`` (None when unsharded)."""
        if self.router is None:
            return None
        return self.router.shard_for(gateway_id)

    def shard_node_for(self, gateway_id: str) -> str:
        """The node a gateway should address its check-ins to."""
        shard = self.shard_for(gateway_id)
        return self.node if shard is None else shard.node

    # -- RPC handlers ---------------------------------------------------------------

    def _route(self, gateway_id: str) -> tuple:
        """(statesync, cpu) serving ``gateway_id``'s sync traffic."""
        shard = self.shard_for(gateway_id)
        if shard is None:
            return self.statesync, self.cpu
        return shard.statesync, shard.cpu

    def _checkin_handler(self, request: Dict[str, Any]):
        statesync, cpu = self._route(request["gateway_id"])
        return self._run_checkin(statesync, cpu, request)

    def _reconcile_handler(self, request: Dict[str, Any]):
        statesync, cpu = self._route(request["gateway_id"])
        return self._run_reconcile(statesync, cpu, request)

    def _make_checkin_handler(self, statesync: StateSync, cpu: CpuModel):
        def handler(request: Dict[str, Any]):
            return self._run_checkin(statesync, cpu, request)
        return handler

    def _make_reconcile_handler(self, statesync: StateSync, cpu: CpuModel):
        def handler(request: Dict[str, Any]):
            return self._run_reconcile(statesync, cpu, request)
        return handler

    def _run_checkin(self, statesync: StateSync, cpu: CpuModel,
                     request: Dict[str, Any]):
        samples = sum(len(entry.get("metrics", {}))
                      for entry in request.get("metrics_backlog") or ())
        cost = self.config.checkin_cpu_cost \
            + samples * self.config.metrics_cpu_cost_per_sample
        response = statesync.handle_checkin(request)
        if response.get("config") is not None:
            cost += self.config.config_push_cpu_cost

        def proc(sim):
            yield cpu.submit("checkin", cost)
            return response

        return proc(self.sim)

    def _run_reconcile(self, statesync: StateSync, cpu: CpuModel,
                       request: Dict[str, Any]):
        response = statesync.handle_reconcile(request)

        def proc(sim):
            yield cpu.submit("reconcile", self.config.reconcile_cpu_cost)
            return response

        return proc(self.sim)

    def _challenge_handler(self, request: Dict[str, Any]):
        try:
            challenge = self.bootstrapper.request_challenge(
                request["gateway_id"])
        except BootstrapError as exc:
            raise RpcError(RpcError.PERMISSION_DENIED, str(exc))
        return {"nonce": challenge.nonce}

    def _complete_handler(self, request: Dict[str, Any]):
        try:
            cert = self.bootstrapper.complete(request["gateway_id"],
                                              request["signature"])
        except BootstrapError as exc:
            raise RpcError(RpcError.PERMISSION_DENIED, str(exc))
        return {"serial": cert.serial, "token": cert.token,
                "expires_at": cert.expires_at}

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
        """Northbound: per-AGW, per-shard, and fleet health scores."""
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

    def _charge_northbound(self) -> None:
        self.cpu.submit("northbound", self.config.northbound_cpu_cost)
