"""The Access Gateway: Magma's core contribution, assembled.

An :class:`AccessGateway` composes the services of Figure 4 - RAN-specific
frontends on the left, generic functions on the right - around one CPU
model, one software data plane, and one RPC server on the AGW's network
node.  It is a *small fault domain* (§3.3): ``crash()`` loses all runtime
state and drops off the network; ``recover()`` restores sessions from the
last checkpoint.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from ...net.rpc import RpcChannel, RpcServer
from ...net.simnet import Network
from ...sim.kernel import Simulator
from ...sim.monitor import Monitor
from ...sim.rng import RngRegistry
from ..policy.accounting import AccountingLog
from .context import AgwConfig, AgwContext
from .directoryd import Directoryd
from .enodebd import Enodebd
from .magmad import CheckpointStore, Magmad
from .mme import AccessManagement, FederationClient
from .mobilityd import Mobilityd
from .pipelined import Pipelined
from .policydb import PolicyDb
from .ngap_frontend import NgapFrontend
from .radius_frontend import RadiusFrontend
from .s1ap_frontend import S1apFrontend
from .sessiond import LocalOcsClient, RpcOcsClient, Sessiond
from .subscriberdb import SubscriberDb


class AccessGateway:
    """One Magma AGW: frontends + generic functions + data plane."""

    def __init__(self, sim: Simulator, network: Network, node: str,
                 config: Optional[AgwConfig] = None,
                 orchestrator_node: Optional[str] = None,
                 ocs: Optional[Any] = None,
                 ocs_node: Optional[str] = None,
                 checkpoint_store: Optional[CheckpointStore] = None,
                 monitor: Optional[Monitor] = None,
                 rng: Optional[RngRegistry] = None):
        self.context = AgwContext(sim, network, node, config=config,
                                  monitor=monitor, rng=rng)
        self.node = node
        self.crashed = False
        # (time, busy core-seconds) at the previous metrics_summary().
        self._cpu_mark = (sim.now, 0.0)
        self.server = RpcServer(sim, network, node)
        self.subscriberdb = SubscriberDb()
        self.policydb = PolicyDb()
        self.mobilityd = Mobilityd(self.context.config.ip_block)
        self.pipelined = Pipelined(self.context)
        self.accounting = AccountingLog()
        ocs_client = None
        if ocs is not None:
            ocs_client = LocalOcsClient(sim, ocs)
        elif ocs_node is not None:
            channel = RpcChannel(sim, network, node, ocs_node)
            ocs_client = RpcOcsClient(channel,
                                      deadline=self.context.config.rpc_deadline)
        self.sessiond = Sessiond(self.context, self.subscriberdb,
                                 self.policydb, self.mobilityd,
                                 self.pipelined, ocs_client=ocs_client,
                                 accounting=self.accounting)
        self.directoryd = Directoryd(clock=lambda: sim.now)
        self.enodebd = Enodebd(clock=lambda: sim.now)
        federation = None
        if self.context.config.feg_node is not None:
            feg_channel = RpcChannel(sim, network, node,
                                     self.context.config.feg_node)
            federation = FederationClient(feg_channel)
        self.mme = AccessManagement(self.context, self.subscriberdb,
                                    self.sessiond, directoryd=self.directoryd,
                                    federation=federation)
        self.s1ap = S1apFrontend(self.context, self.server, self.mme,
                                 self.sessiond, self.enodebd)
        self.radius = RadiusFrontend(self.context, self.server, self.mme,
                                     self.sessiond, self.enodebd)
        self.ngap = NgapFrontend(self.context, self.server, self.mme,
                                 self.sessiond, self.enodebd)
        self.magmad = Magmad(self.context, self,
                             checkpoint_store=checkpoint_store,
                             orchestrator_node=orchestrator_node)
        from .health import HealthService
        self.health = HealthService(self)
        from .inter_agw import InterAgwMobility
        self.inter_agw = InterAgwMobility(self.context, self.server,
                                          self.sessiond)

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Start supervisor loops (checkpointing, orchestrator check-in)."""
        self.magmad.start()

    def crash(self) -> None:
        """Fail-stop: drop off the network and lose all runtime state."""
        if self.crashed:
            return
        self.crashed = True
        self.context.network.set_node_up(self.node, False)
        self.magmad.stop()
        rec = self.context.sim.recorder
        if rec is not None:
            rec.node(self.node).error(
                "gateway", "crash",
                sessions_lost=self.sessiond.session_count())
            rec.snapshot(f"crash:{self.node}")

    def recover(self, from_checkpoint: bool = True) -> int:
        """Restart after a crash; returns the number of sessions restored.

        A fresh process has empty runtime state; if a checkpoint exists the
        sessions (and their data-plane rules) are rebuilt from it.  MME NAS
        contexts are *not* restored - they are ephemeral and recoverable,
        §3.4: a UE mid-attach simply retries.
        """
        if not self.crashed:
            return 0
        self._wipe_runtime_state()
        self.context.network.set_node_up(self.node, True)
        self.crashed = False
        restored = 0
        store = self.magmad.checkpoint_store
        if from_checkpoint and store is not None:
            snapshot = store.load(self.node)
            if snapshot is not None:
                restored = self.sessiond.restore(snapshot["sessions"])
                self.magmad.config_version = snapshot.get("config_version", 0)
        self.magmad.start()
        rec = self.context.sim.recorder
        if rec is not None:
            rec.node(self.node).info(
                "gateway", "restore", sessions_restored=restored,
                from_checkpoint=from_checkpoint)
            rec.snapshot(f"restore:{self.node}")
        return restored

    def _wipe_runtime_state(self) -> None:
        for imsi in list(self.pipelined.installed_imsis()):
            self.pipelined.remove_session(imsi)
        self.sessiond._sessions.clear()
        self.mme._by_imsi.clear()
        self.mme._by_mme_ue_id.clear()
        self.mobilityd.restore({})

    # -- reporting -------------------------------------------------------------------

    def status_summary(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "sessions": self.sessiond.session_count(),
            "subscribers_cached": len(self.subscriberdb),
            "ran_devices": self.enodebd.count(),
            "crashed": self.crashed,
            "health": self.health.summary(),
        }

    def metrics_summary(self) -> Dict[str, float]:
        """The per-gateway telemetry bundle shipped at every check-in.

        Session/attach counters, the pipelined lookup-stack gauges
        (``dp_microflow_*``, ``dp_rules``, ...) and everything accumulated
        in the AGW monitor, flattened to one {name: value} payload that
        metricsd labels with this gateway's id.
        """
        self.pipelined.record_datapath_metrics()
        mme = self.mme.stats
        metrics: Dict[str, float] = {
            "attach_requests": float(mme["attach_requests"]),
            "attach_accepted": float(mme["attach_accepted"]),
            "attach_rejected": float(mme["attach_rejected"]),
            "sessions_active": float(self.sessiond.session_count()),
            "checkin_tx_bytes": float(self.magmad.stats["checkin_tx_bytes"]),
            "checkin_rx_bytes": float(self.magmad.stats["checkin_rx_bytes"]),
        }
        cpu = self.context.cpu
        now = self.context.sim.now
        since, busy_then = self._cpu_mark
        if now > since:
            # CPU headroom input for the orchestrator's health engine:
            # the mean utilization since the previous summary.
            busy = cpu.busy_core_seconds()
            metrics["cpu_util"] = (busy - busy_then) / (cpu.cores * (now - since))
            self._cpu_mark = (now, busy)
        monitor = self.context.monitor
        metrics.update(monitor.counters())
        metrics.update(monitor.gauges())
        return metrics

    # -- traffic integration (fluid user plane) ------------------------------------------

    def page(self, imsi: str) -> bool:
        """Page an idle UE so pending downlink data can be delivered."""
        return self.mme.page(imsi)

    def admitted_downlink(self, imsi: str, offered_mbps: float) -> float:
        """Policy-shaped rate the data plane admits for a UE's downlink."""
        if self.crashed:
            return 0.0
        return self.pipelined.admitted_downlink_rate(imsi, offered_mbps)

    def set_user_plane_load(self, total_mbps: float) -> None:
        """Set the fluid user-plane CPU demand for the current tick."""
        cost = self.context.config.hardware.up_cost_per_mbps
        self.context.cpu.set_fluid_demand("up", "traffic", total_mbps * cost)

    def user_plane_work(self) -> Tuple[float, float]:
        """Cumulative ``(offered, served)`` user-plane core-seconds.

        The ratio of the two differences over a consumer's own tick is the
        fraction of its traffic the CPU forwarded in that tick.
        """
        return self.context.cpu.fluid_work("up")
