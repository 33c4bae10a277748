"""magmad: the AGW supervisor.

Three responsibilities, straight from §3.2-3.4 of the paper:

- **Checkpointing**: runtime (session) state is checkpointed regularly so a
  crashed AGW - or its cloud backup instance - can restore service for the
  affected UEs (§3.3).
- **Check-in / state sync**: the AGW periodically checks in with the
  orchestrator, reporting status and metrics and pulling the full *desired*
  configuration when its version is stale (§3.4's desired-state model - a
  single successful sync converges the replica no matter what was missed).
- **Headless operation**: when the orchestrator is unreachable, check-ins
  fail and are counted, but nothing else stops - attaches keep succeeding
  from cached subscriber state (§3.2).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ...net.rpc import RpcChannel, RpcError, payload_bytes
from ...obs.tracing import NOOP_SPAN
from ...sim.kernel import Interrupted, Process
from ..sync import DigestMirror, ReconcileClient
from .context import RPC_DEADLINE, AgwContext

#: Seconds between runtime-state checkpoints.
CHECKPOINT_INTERVAL = 10.0
#: Telemetry buffering during headless operation (§3.4): how many
#: check-in snapshots to retain while the orchestrator is unreachable.
METRICS_BUFFER_MAX = 240
#: Buffered metric snapshots back-filled per check-in after headless
#: operation; the rest wait for the next round.
METRICS_MAX_BACKFILL = 20


class CheckpointStore:
    """Durable storage for AGW runtime-state snapshots.

    Stands in for the AGW's local disk and/or the cloud backup replica the
    paper describes; it survives AGW crashes by construction.
    """

    def __init__(self):
        self._snapshots: Dict[str, Dict[str, Any]] = {}
        self.stats = {"saves": 0, "loads": 0}

    def save(self, node: str, snapshot: Dict[str, Any]) -> None:
        self._snapshots[node] = snapshot
        self.stats["saves"] += 1

    def load(self, node: str) -> Optional[Dict[str, Any]]:
        self.stats["loads"] += 1
        return self._snapshots.get(node)


class Magmad:
    """Supervisor loops for one AGW."""

    def __init__(self, context: AgwContext, gateway: "AccessGateway",
                 checkpoint_store: Optional[CheckpointStore] = None,
                 orchestrator_node: Optional[str] = None):
        self.context = context
        self.gateway = gateway
        self.checkpoint_store = checkpoint_store
        self.orchestrator_node = orchestrator_node
        self._orc_channel: Optional[RpcChannel] = None
        if orchestrator_node is not None:
            self._orc_channel = RpcChannel(context.sim, context.network,
                                           context.node, orchestrator_node)
        self.config_version = 0
        self.running = False
        self._procs: List[Process] = []
        # Best-effort telemetry (§3.4): every check-in snapshots the
        # gateway's metrics into a seq-numbered buffer; the orchestrator
        # acks the highest seq it ingested.  During headless gaps the
        # buffer accumulates (bounded - oldest dropped) and is back-filled
        # on reconnect; the ack makes redelivery duplicate-free.
        self._metrics_buffer: Deque[Dict[str, Any]] = deque(
            maxlen=METRICS_BUFFER_MAX)
        self._metrics_seq = 0
        # High-water mark of shipped attach-latency samples: each buffered
        # batch carries only rows recorded strictly after the previous one
        # (the window is exclusive, so boundary samples never duplicate).
        self._latency_since = -1.0
        # Digest trees over the *applied* config (repro.core.sync): every
        # check-in carries their roots so the orchestrator can elide
        # in-sync namespaces and reconcile divergent ones by tree walk.
        self.mirror = DigestMirror()
        self.stats = {"checkpoints": 0, "checkins_ok": 0,
                      "checkins_failed": 0, "configs_applied": 0,
                      "metrics_buffered": 0, "metrics_acked": 0,
                      "reconciles": 0, "reconcile_rounds": 0,
                      "reconciles_aborted": 0, "delta_upserts": 0,
                      "delta_tombstones": 0, "digest_fast_forwards": 0,
                      "checkin_tx_bytes": 0, "checkin_rx_bytes": 0}

    def start(self) -> None:
        if self.running:
            return
        self.running = True
        sim = self.context.sim
        self._procs = []
        if self.checkpoint_store is not None:
            self._procs.append(sim.spawn(self._checkpoint_loop(),
                                         name=f"ckpt:{self.context.node}"))
        if self._orc_channel is not None:
            self._procs.append(sim.spawn(self._checkin_loop(),
                                         name=f"checkin:{self.context.node}"))

    def stop(self) -> None:
        """Stop supervisor loops *now*: interrupting them at their current
        sleep keeps a crashed AGW from holding interval timers in the
        scheduler until their next tick."""
        self.running = False
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.alive:
                proc.interrupt("magmad stopped")

    # -- checkpointing -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The runtime state a checkpoint carries."""
        return {
            "time": self.context.sim.now,
            "sessions": self.gateway.sessiond.checkpoint(),
            "config_version": self.config_version,
        }

    def checkpoint_now(self) -> Dict[str, Any]:
        tracer = self.context.sim.tracer
        with NOOP_SPAN if tracer is None else tracer.begin(
                "magmad.checkpoint", component="magmad",
                node=self.context.node):
            snapshot = self.snapshot()
            if self.checkpoint_store is not None:
                self.checkpoint_store.save(self.context.node, snapshot)
            self.stats["checkpoints"] += 1
        return snapshot

    def _checkpoint_loop(self):
        try:
            while self.running:
                yield self.context.sim.timeout(CHECKPOINT_INTERVAL)
                if not self.running:
                    return
                self.checkpoint_now()
        except Interrupted:
            return

    # -- check-in / config sync --------------------------------------------------------

    def checkin_once(self):
        """Generator: one check-in exchange with the orchestrator."""
        self._buffer_metrics()
        backlog = list(self._metrics_buffer)
        if len(backlog) > METRICS_MAX_BACKFILL:
            backlog = backlog[:METRICS_MAX_BACKFILL]  # oldest first
        request = {
            "gateway_id": self.context.node,
            "network_id": self.context.config.network_id,
            "config_version": self.config_version,
            "digest_roots": self.mirror.roots(),
            "status": self.gateway.status_summary(),
            "metrics_backlog": backlog,
        }
        tracer = self.context.sim.tracer
        span = NOOP_SPAN if tracer is None else tracer.begin(
            "magmad.checkin", component="magmad", node=self.context.node)
        self._record_wire(tx=payload_bytes(request))
        try:
            with span.active():
                response = yield self._orc_channel.call(
                    "statesync", "checkin", request,
                    deadline=RPC_DEADLINE)
        except RpcError:
            self.stats["checkins_failed"] += 1
            span.end("error")
            return False
        span.end()
        self.stats["checkins_ok"] += 1
        self._record_wire(rx=payload_bytes(response))
        self._ack_metrics(response.get("metrics_ack"))
        if response.get("config") is not None:
            self.apply_config(response["config"], response["config_version"])
        elif response.get("sync"):
            yield from self._reconcile(response)
        elif response.get("digest_in_sync"):
            # Roots match but the version moved (a rewrite of identical
            # values): adopt the new version without transferring anything.
            self.config_version = response["config_version"]
            self.stats["digest_fast_forwards"] += 1
        return True

    def _reconcile(self, checkin_response: Dict[str, Any]):
        """Generator: walk divergent digest trees down to leaf deltas."""
        client = ReconcileClient(self.mirror, self._apply_delta,
                                 self.context.config.network_id,
                                 self.context.node)
        request = client.start(checkin_response)
        while request is not None:
            self._record_wire(tx=payload_bytes(request))
            try:
                reply = yield self._orc_channel.call(
                    "statesync", "reconcile", request,
                    deadline=RPC_DEADLINE)
            except RpcError:
                # Safe to abandon mid-walk: deltas applied so far only
                # moved this replica *toward* the orchestrator, and the
                # next check-in's roots restart the walk where it stopped.
                self.stats["reconciles_aborted"] += 1
                return False
            self._record_wire(rx=payload_bytes(reply))
            request = client.feed(reply)
        result = client.result()
        self.stats["reconciles"] += 1
        self.stats["reconcile_rounds"] += result.rounds
        self.stats["delta_upserts"] += result.upserts
        self.stats["delta_tombstones"] += result.tombstones
        if result.converged:
            self.config_version = result.config_version
            self.stats["configs_applied"] += 1
        return result.converged

    def _apply_delta(self, label: str, upserts: Dict[str, Any],
                     deletes: List[str], version: int) -> None:
        """Apply one reconciled leaf delta to the owning local store."""
        if label == "subscribers":
            self.gateway.subscriberdb.apply_desired_delta(
                upserts, deletes, version)
        elif label == "policies":
            self.gateway.policydb.apply_desired_delta(
                upserts, deletes, version)
        elif label == "ran":
            self.gateway.enodebd.apply_desired_delta(
                upserts, deletes, version)

    def _record_wire(self, tx: int = 0, rx: int = 0) -> None:
        self.stats["checkin_tx_bytes"] += tx
        self.stats["checkin_rx_bytes"] += rx

    def _buffer_metrics(self) -> None:
        """Snapshot current metrics into the seq-numbered backlog."""
        self._metrics_seq += 1
        entry = {
            "seq": self._metrics_seq,
            "time": self.context.sim.now,
            "metrics": self.gateway.metrics_summary(),
        }
        latency = self._collect_latency()
        if latency:
            entry["latency"] = latency
        self._metrics_buffer.append(entry)
        self.stats["metrics_buffered"] += 1

    #: Newest latency rows shipped per batch (distribution samples are
    #: best-effort telemetry; a huge storm ships its tail, not its bulk).
    LATENCY_ROWS_PER_BATCH = 200

    def _collect_latency(self) -> Dict[str, List[tuple]]:
        """Attach-latency rows recorded since the last buffered batch.

        Rows are the series' own ``(time, value, trace_id|None)`` — the
        trace id is the sample's exemplar, carried through metricsd so the
        orchestrator's p99 stays resolvable to a real trace.
        """
        rows = self.gateway.mme.attach_latency.recent_samples(
            self._latency_since)
        self._latency_since = self.context.sim.now
        if not rows:
            return {}
        return {"attach_latency_s": rows[-self.LATENCY_ROWS_PER_BATCH:]}

    def _ack_metrics(self, ack: Optional[int]) -> None:
        if ack is None:
            return
        while self._metrics_buffer and self._metrics_buffer[0]["seq"] <= ack:
            self._metrics_buffer.popleft()
            self.stats["metrics_acked"] += 1

    def metrics_backlog_depth(self) -> int:
        return len(self._metrics_buffer)

    def _checkin_loop(self):
        interval = self.context.config.checkin_interval
        try:
            while self.running:
                yield self.context.sim.timeout(interval)
                if not self.running:
                    return
                yield from self.checkin_once()
        except Interrupted:
            return

    def apply_config(self, bundle: Dict[str, Any], version: int) -> None:
        """Apply a full desired-state configuration bundle."""
        subscribers = bundle.get("subscribers")
        if subscribers is not None:
            self.gateway.subscriberdb.apply_desired_state(subscribers, version)
            self.mirror.rebuild("subscribers", subscribers)
        policies = bundle.get("policies")
        if policies is not None:
            self.gateway.policydb.apply_desired_state(policies, version)
            self.mirror.rebuild("policies", policies)
        ran_config = bundle.get("ran")
        if ran_config is not None:
            self.gateway.enodebd.apply_desired_config(ran_config, version)
            self.mirror.rebuild("ran", ran_config)
        self.config_version = version
        self.stats["configs_applied"] += 1
