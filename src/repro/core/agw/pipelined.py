"""pipelined: the data-plane configuration service.

Translates session-level intents ("subscriber X with IP x.x.x.x has an
active bearer toward eNodeB E with rate limit R") into OpenFlow-like
messages for the software switch (§3.5).  If the forwarding engine were
replaced, only this module would change.

Pipeline layout (mirrors Magma's OVS table split in spirit):

====== =====================================================================
table  role
====== =====================================================================
0      classification: GTP-U decap + direction tagging (uplink/downlink)
1      policy enforcement: per-session meters, DSCP marking
2      egress: tunnel encap (downlink) and port output
====== =====================================================================
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ...dataplane import actions as act
from ...dataplane.matcher import FlowMatch
from ...dataplane.openflow import FlowBundle, FlowMod, MeterMod, StatsRequest
from ...dataplane.packet import Packet, ip_packet
from ...dataplane.switch import SoftwareSwitch
from ..policy.enforcer import UNLIMITED_MBPS
from .context import AgwContext

TABLE_CLASSIFY = 0
TABLE_POLICY = 1
TABLE_EGRESS = 2

# 3GPP QCI -> IP DSCP marking (standard operator mapping, abbreviated).
# QCI 1 = conversational voice (EF), 5 = IMS signalling (AF41 here),
# 9 = default best effort.
QCI_TO_DSCP = {1: 46, 2: 36, 3: 28, 4: 28, 5: 34, 6: 18, 7: 10, 8: 10, 9: 0}


@dataclass
class SessionFlows:
    imsi: str
    ue_ip: str
    agw_teid: int
    enb_teid: Optional[int]
    enb_node: Optional[str]
    meter_id: int
    rate_mbps: float
    egress_port: str = "internet"


class Pipelined:
    """Owns and programs the AGW's software switch."""

    def __init__(self, context: AgwContext):
        self.context = context
        config = context.config
        self.switch = SoftwareSwitch(f"{context.node}-dp", num_tables=3,
                                     clock=lambda: context.sim.now)
        self.ran_port = config.ran_port
        self.sgi_port = config.sgi_port
        self.gtpa_port = config.gtpa_port
        self._meter_ids = itertools.count(1)
        self._sessions: Dict[str, SessionFlows] = {}
        self._ran_sink = []
        self._sgi_sink = []
        self._gtpa_sink = []
        self.switch.add_port(self.ran_port, self._ran_sink.append)
        self.switch.add_port(self.sgi_port, self._sgi_sink.append)
        self.switch.add_port(self.gtpa_port, self._gtpa_sink.append)
        # When a batch transaction is open, mods queue here instead of
        # hitting the switch; commit applies them as one FlowBundle.
        self._pending: Optional[List[Any]] = None
        # Aggregated fleet user-plane load (set_fleet_load), in Mbps.
        self._fleet_offered_mbps = 0.0
        self.stats = {"sessions_installed": 0, "sessions_removed": 0,
                      "rate_changes": 0, "batches": 0}

    # -- batched programming (the session hot path) -------------------------------

    @contextmanager
    def batch(self):
        """Coalesce session programming into one atomic OpenFlow bundle.

        Everything installed/removed/re-rated inside the ``with`` block is
        committed as a single :class:`FlowBundle` on exit - one control
        message and one ``add_batch`` per table instead of ~6 switch
        operations per session.  Used by ``Sessiond.restore()`` and
        bulk-attach paths.
        On an exception inside the block, nothing reaches the switch.
        """
        if self._pending is not None:
            yield self          # nested: join the enclosing transaction
            return
        self._pending = []
        try:
            yield self
        except BaseException:  # roll back the bundle, re-raise unchanged
            self._pending = None
            raise
        mods, self._pending = self._pending, None
        if mods:
            self.switch.apply(FlowBundle(mods=tuple(mods)))
            self.stats["batches"] += 1

    def in_batch(self) -> bool:
        return self._pending is not None

    def _apply(self, mod: Any) -> None:
        if self._pending is not None:
            self._pending.append(mod)
        else:
            self.switch.apply(mod)

    # -- port plumbing (tests/examples can replace the sinks) ---------------------

    def set_port_delivery(self, port: str, deliver) -> None:
        self.switch.remove_port(port)
        self.switch.add_port(port, deliver)

    # -- session programming --------------------------------------------------------

    def install_session(self, imsi: str, ue_ip: str, agw_teid: int,
                        rate_mbps: Optional[float],
                        egress_port: Optional[str] = None,
                        qci: int = 9) -> SessionFlows:
        """Install classification + policy rules for a new session.

        ``egress_port`` selects local breakout (the SGi port, default) or
        the GTP aggregator port for home-routed sessions (§3.6).  The
        eNodeB-side tunnel endpoint is attached later (the S1AP initial
        context setup response arrives after the session exists) via
        :meth:`set_enb_tunnel`.
        """
        if imsi in self._sessions:
            self.remove_session(imsi)
        # No tags dict here: this is the session hot path, the span must
        # stay allocation-light.
        span = self.context.tracer.child("pipelined.install_session",
                                         component="pipelined",
                                         node=self.context.node)
        egress = egress_port or self.sgi_port
        if egress not in (self.sgi_port, self.gtpa_port):
            raise ValueError(f"unknown egress port {egress!r}")
        rate = rate_mbps if rate_mbps is not None else UNLIMITED_MBPS
        meter_id = next(self._meter_ids)
        self._apply(MeterMod(command=MeterMod.ADD, meter_id=meter_id,
                             rate_mbps=max(rate, 1e-6)))
        flows = SessionFlows(imsi=imsi, ue_ip=ue_ip, agw_teid=agw_teid,
                             enb_teid=None, enb_node=None,
                             meter_id=meter_id, rate_mbps=rate,
                             egress_port=egress)
        # Table 0: uplink - GTP-U traffic from the RAN for this bearer.
        self._apply(FlowMod(
            command=FlowMod.ADD, table_id=TABLE_CLASSIFY, priority=10,
            match=FlowMatch(in_port=self.ran_port, tun_id=agw_teid),
            actions=[act.PopGtpu(), act.SetRegister("direction", "uplink"),
                     act.SetRegister("imsi", imsi), act.GotoTable(TABLE_POLICY)],
            cookie=imsi))
        # Table 0: downlink - traffic addressed to the UE from its egress.
        self._apply(FlowMod(
            command=FlowMod.ADD, table_id=TABLE_CLASSIFY, priority=10,
            match=FlowMatch(in_port=egress, ip_dst=ue_ip),
            actions=[act.SetRegister("direction", "downlink"),
                     act.SetRegister("imsi", imsi), act.GotoTable(TABLE_POLICY)],
            cookie=imsi))
        # Table 1: policy - QoS marking by QCI, metered, then egress.
        policy_actions = [act.Meter(meter_id)]
        dscp = QCI_TO_DSCP.get(qci, 0)
        if dscp:
            policy_actions.append(act.SetDscp(dscp))
        policy_actions.append(act.GotoTable(TABLE_EGRESS))
        self._apply(FlowMod(
            command=FlowMod.ADD, table_id=TABLE_POLICY, priority=10,
            match=FlowMatch(registers={"imsi": imsi}),
            actions=policy_actions, cookie=imsi))
        # Table 2: uplink out the session's egress (SGi or GTP-A).
        self._apply(FlowMod(
            command=FlowMod.ADD, table_id=TABLE_EGRESS, priority=10,
            match=FlowMatch(registers={"imsi": imsi, "direction": "uplink"}),
            actions=[act.Output(egress)], cookie=imsi))
        # Table 2 downlink rule is installed once the eNB tunnel is known.
        self._sessions[imsi] = flows
        self.stats["sessions_installed"] += 1
        span.end()
        return flows

    def set_enb_tunnel(self, imsi: str, enb_teid: int, enb_node: str) -> None:
        """Set (or re-point, after a handover) the downlink tunnel."""
        flows = self._require(imsi)
        had_tunnel = flows.enb_teid is not None
        flows.enb_teid = enb_teid
        flows.enb_node = enb_node
        downlink = FlowMatch(registers={"imsi": imsi,
                                        "direction": "downlink"})
        if had_tunnel:
            # Drop the previous downlink egress rule (intra-AGW handover).
            # Fresh installs skip this: no rule exists to delete.  The
            # strict delete itself is one classifier-bucket probe, but a
            # DELETE inside a bundle forces a flush of the pending ADDs
            # (and counts as a flow op), so bulk restore stays all-ADD.
            self._apply(FlowMod(command=FlowMod.DELETE,
                                table_id=TABLE_EGRESS, priority=10,
                                match=downlink))
        self._apply(FlowMod(
            command=FlowMod.ADD, table_id=TABLE_EGRESS, priority=10,
            match=downlink,
            actions=[act.PushGtpu(teid=enb_teid, tunnel_src=self.context.node,
                                  tunnel_dst=enb_node),
                     act.Output(self.ran_port)],
            cookie=imsi))

    def remove_session(self, imsi: str) -> bool:
        flows = self._sessions.pop(imsi, None)
        if flows is None:
            return False
        span = self.context.tracer.child("pipelined.remove_session",
                                         component="pipelined",
                                         node=self.context.node)
        for table_id in (TABLE_CLASSIFY, TABLE_POLICY, TABLE_EGRESS):
            self._apply(FlowMod(command=FlowMod.DELETE_BY_COOKIE,
                                table_id=table_id, cookie=imsi))
        self._apply(MeterMod(command=MeterMod.DELETE,
                             meter_id=flows.meter_id))
        self.stats["sessions_removed"] += 1
        span.end()
        return True

    def set_session_rate(self, imsi: str, rate_mbps: float) -> None:
        """Reprogram the session's meter (throttling / un-throttling)."""
        flows = self._require(imsi)
        flows.rate_mbps = rate_mbps
        self._apply(MeterMod(command=MeterMod.MODIFY,
                             meter_id=flows.meter_id,
                             rate_mbps=max(rate_mbps, 1e-6)))
        self.stats["rate_changes"] += 1

    def has_session(self, imsi: str) -> bool:
        return imsi in self._sessions

    def session(self, imsi: str) -> Optional[SessionFlows]:
        return self._sessions.get(imsi)

    def session_count(self) -> int:
        return len(self._sessions)

    def installed_imsis(self) -> List[str]:
        return list(self._sessions)

    # -- fluid evaluation ---------------------------------------------------------------

    def admitted_downlink_rate(self, imsi: str, offered_mbps: float) -> float:
        """Fluid-mode pipeline walk for downlink traffic toward a UE."""
        flows = self._sessions.get(imsi)
        if flows is None or flows.enb_teid is None:
            return 0.0
        representative = ip_packet("8.8.8.8", flows.ue_ip)
        admitted, _cookies = self.switch.evaluate_fluid(
            representative, flows.egress_port, offered_mbps)
        return admitted

    def record_fluid_usage(self, imsi: str, mbps: float, duration: float) -> None:
        self.switch.record_fluid_usage(imsi, mbps, duration)

    def session_byte_count(self, imsi: str) -> int:
        reply = self.switch.apply(StatsRequest(cookie=imsi))
        return max((entry.bytes for entry in reply.entries), default=0)

    # -- aggregated fleet user plane (workloads.fleet) ------------------------------

    def set_fleet_load(self, offered_mbps: float) -> None:
        """Offered downlink of the cohort-aggregated population, as one
        fluid demand instead of per-UE meters.  The CPU model polices it
        (max-min against control-plane work, DESIGN.md §5), and the gauge
        rides the normal datapath-metrics export so check-in telemetry
        carries the fleet's user-plane load."""
        if offered_mbps < 0:
            raise ValueError(f"fleet load must be >= 0, got {offered_mbps}")
        self._fleet_offered_mbps = offered_mbps
        cost = self.context.config.hardware.up_cost_per_mbps
        self.context.cpu.set_fluid_demand("up", "fleet", offered_mbps * cost)

    def fleet_served_mbps(self) -> float:
        """Fleet offered load scaled by the fraction being served now."""
        return (self._fleet_offered_mbps *
                self.context.cpu.fluid_service_fraction("up"))

    # -- lookup-stack observability -----------------------------------------------

    def datapath_stats(self) -> Dict[str, Any]:
        """Classifier decomposition + microflow cache counters (see switch)."""
        return self.switch.datapath_stats()

    def record_datapath_metrics(self) -> None:
        """Export lookup-stack gauges into the AGW monitor (metricsd feed).

        Called from health/metrics collection loops; last value wins, so
        it is safe to call at any cadence.
        """
        monitor = self.context.monitor
        dp = self.switch.datapath_stats()
        mf = dp["microflow"]
        monitor.set_gauge("dp_microflow_size", mf["size"])
        monitor.set_gauge("dp_microflow_hits", mf["hits"])
        monitor.set_gauge("dp_microflow_misses", mf["misses"])
        monitor.set_gauge("dp_microflow_evictions", mf["evictions"])
        monitor.set_gauge("dp_microflow_invalidations", mf["invalidations"])
        monitor.set_gauge("dp_rules",
                          sum(t["rules"] for t in dp["tables"]))
        monitor.set_gauge("dp_subtables",
                          sum(t["subtables"] for t in dp["tables"]))
        monitor.set_gauge("dp_residue_rules",
                          sum(t["residue_rules"] for t in dp["tables"]))
        if self._fleet_offered_mbps:
            monitor.set_gauge("dp_fleet_offered_mbps",
                              self._fleet_offered_mbps)

    def _require(self, imsi: str) -> SessionFlows:
        flows = self._sessions.get(imsi)
        if flows is None:
            raise KeyError(f"no installed session for {imsi}")
        return flows
