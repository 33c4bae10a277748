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

from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from ...dataplane import actions as act
from ...dataplane.matcher import FlowMatch
from ...dataplane.openflow import FlowBundle, FlowMod, MeterMod, StatsRequest
from ...dataplane.packet import ip_packet
from ...dataplane.switch import SoftwareSwitch
from ...record import field, record
from ..policy.enforcer import UNLIMITED_MBPS
from .context import AgwContext

TABLE_CLASSIFY = 0
TABLE_POLICY = 1
TABLE_EGRESS = 2

#: Switch ports: toward the RAN (GTP-U), the internet (SGi), and the
#: federated MNO's core (home-routed roamers, §3.6).
RAN_PORT = "ran"
SGI_PORT = "internet"
GTPA_PORT = "gtpa"

# 3GPP QCI -> IP DSCP marking (standard operator mapping, abbreviated).
# QCI 1 = conversational voice (EF), 5 = IMS signalling (AF41 here),
# 9 = default best effort.
QCI_TO_DSCP = {1: 46, 2: 36, 3: 28, 4: 28, 5: 34, 6: 18, 7: 10, 8: 10, 9: 0}

# The actions every session's rules share.  Actions are frozen, so one
# instance serves every rule that carries it.
_POP_GTPU = act.PopGtpu()
_UPLINK = act.SetRegister("direction", "uplink")
_DOWNLINK = act.SetRegister("direction", "downlink")
_TO_POLICY = act.GotoTable(TABLE_POLICY)
_TO_EGRESS = act.GotoTable(TABLE_EGRESS)
_OUTPUT = {port: act.Output(port) for port in (RAN_PORT, SGI_PORT, GTPA_PORT)}
_MARK = {qci: act.SetDscp(dscp) for qci, dscp in QCI_TO_DSCP.items() if dscp}

#: A meter's lowest rate: a session throttled to zero is metered at this.
MIN_METER_MBPS = 1e-6
#: Every session rule's priority.
RULE_PRIORITY = 10


@record
class SessionFlows:
    imsi: str
    ue_ip: str
    agw_teid: int
    enb_teid: Optional[int]
    enb_node: Optional[str]
    meter_id: int
    rate_mbps: float
    egress_port: str = "internet"
    # The downlink egress match, built by the first set_enb_tunnel and
    # reused by every handover's strict delete and add.
    downlink_match: Optional[FlowMatch] = field(default=None, repr=False,
                                                compare=False)


class Pipelined:
    """Owns and programs the AGW's software switch."""

    def __init__(self, context: AgwContext):
        self.context = context
        self.switch = SoftwareSwitch(f"{context.node}-dp", num_tables=3,
                                     clock=lambda: context.sim.now)
        self.ran_port = RAN_PORT
        self.sgi_port = SGI_PORT
        self.gtpa_port = GTPA_PORT
        self._last_meter_id = 0
        self._sessions: Dict[str, SessionFlows] = {}
        self._ran_sink = []
        self._sgi_sink = []
        self._gtpa_sink = []
        self.switch.add_port(self.ran_port, self._ran_sink.append)
        self.switch.add_port(self.sgi_port, self._sgi_sink.append)
        self.switch.add_port(self.gtpa_port, self._gtpa_sink.append)
        # Where every session step sends its mods: the switch, or while a
        # batch is open its pending list, which commit applies as one
        # FlowBundle.  Steps cannot tell the two apart.
        self._pending: Optional[List[Any]] = None
        self._send = self.switch.apply
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
        On an exception inside the block, or a bundle the switch rejects,
        nothing reaches the switch and pipelined's own sessions and stats
        are as they were before the block.  Meter ids are not taken back:
        an id once handed out is never handed out again.
        """
        if self._pending is not None:
            yield self          # nested: join the enclosing transaction
            return
        sessions = self._sessions
        saved_sessions = dict(sessions)
        saved_flows = [(flows, dict(vars(flows)))
                       for flows in sessions.values()]
        saved_stats = dict(self.stats)
        pending = self._pending = []
        self._send = pending.append
        try:
            yield self
            self._pending, self._send = None, self.switch.apply
            if pending:
                self.switch.apply(FlowBundle(mods=tuple(pending)))
                self.stats["batches"] += 1
        except BaseException:  # roll back, re-raise unchanged
            self._pending, self._send = None, self.switch.apply
            sessions.clear()
            sessions.update(saved_sessions)
            for flows, state in saved_flows:
                vars(flows).update(state)
            self.stats.update(saved_stats)
            raise

    def in_batch(self) -> bool:
        return self._pending is not None

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
        A bad ``egress_port`` raises before anything changes.
        """
        egress = egress_port or self.sgi_port
        if egress not in (self.sgi_port, self.gtpa_port):
            raise ValueError(f"unknown egress port {egress!r}")
        if imsi in self._sessions:
            self.remove_session(imsi)
        # No tags dict here: this is the session hot path, the span must
        # stay allocation-light.
        tracer = self.context.sim.tracer
        span = None if tracer is None else tracer.child(
            "pipelined.install_session", component="pipelined",
            node=self.context.node)
        rate = rate_mbps if rate_mbps is not None else UNLIMITED_MBPS
        meter_id = self._last_meter_id = self._last_meter_id + 1
        send = self._send
        # Messages take their fields by position on this path (FlowMod:
        # command, table, priority, match, actions, cookie; MeterMod:
        # command, meter, rate): keywords cost a dict per message.
        send(MeterMod(MeterMod.ADD, meter_id,
                      MIN_METER_MBPS if MIN_METER_MBPS > rate else rate))
        flows = SessionFlows(imsi, ue_ip, agw_teid, None, None, meter_id,
                             rate, egress)
        tag = act.SetRegister("imsi", imsi)
        # Table 0: uplink - GTP-U traffic from the RAN for this bearer.
        send(FlowMod(FlowMod.ADD, TABLE_CLASSIFY, RULE_PRIORITY,
                     FlowMatch(in_port=self.ran_port, tun_id=agw_teid),
                     [_POP_GTPU, _UPLINK, tag, _TO_POLICY], imsi))
        # Table 0: downlink - traffic addressed to the UE from its egress.
        send(FlowMod(FlowMod.ADD, TABLE_CLASSIFY, RULE_PRIORITY,
                     FlowMatch(in_port=egress, ip_dst=ue_ip),
                     [_DOWNLINK, tag, _TO_POLICY], imsi))
        # Table 1: policy - QoS marking by QCI, metered, then egress.
        meter = act.Meter(meter_id)
        send(FlowMod(FlowMod.ADD, TABLE_POLICY, RULE_PRIORITY,
                     FlowMatch(registers={"imsi": imsi}),
                     [meter, _MARK[qci], _TO_EGRESS] if qci in _MARK
                     else [meter, _TO_EGRESS], imsi))
        # Table 2: uplink out the session's egress (SGi or GTP-A).
        send(FlowMod(FlowMod.ADD, TABLE_EGRESS, RULE_PRIORITY,
                     FlowMatch(registers={"imsi": imsi,
                                          "direction": "uplink"}),
                     [_OUTPUT[egress]], imsi))
        # Table 2 downlink rule is installed once the eNB tunnel is known.
        self._sessions[imsi] = flows
        self.stats["sessions_installed"] += 1
        if span is not None:
            span.end()
        return flows

    def set_enb_tunnel(self, imsi: str, enb_teid: int, enb_node: str) -> None:
        """Set (or re-point, after a handover) the downlink tunnel."""
        sessions = self._sessions
        if imsi not in sessions:
            raise KeyError(f"no installed session for {imsi}")
        flows = sessions[imsi]
        had_tunnel = flows.enb_teid is not None
        flows.enb_teid = enb_teid
        flows.enb_node = enb_node
        downlink = flows.downlink_match
        if downlink is None:
            downlink = flows.downlink_match = FlowMatch(
                registers={"imsi": imsi, "direction": "downlink"})
        send = self._send
        if had_tunnel:
            # Drop the previous downlink egress rule (intra-AGW handover).
            # Fresh installs skip this: no rule exists to delete.  The
            # strict delete itself is one classifier-bucket probe, but a
            # DELETE inside a bundle forces a flush of the pending ADDs
            # (and counts as a flow op), so bulk restore stays all-ADD.
            send(FlowMod(FlowMod.DELETE, TABLE_EGRESS, RULE_PRIORITY,
                         downlink))
        send(FlowMod(FlowMod.ADD, TABLE_EGRESS, RULE_PRIORITY, downlink,
                     [act.PushGtpu(enb_teid, self.context.node, enb_node),
                      _OUTPUT[self.ran_port]], imsi))

    def remove_session(self, imsi: str) -> bool:
        sessions = self._sessions
        if imsi not in sessions:
            return False
        flows = sessions[imsi]
        del sessions[imsi]
        tracer = self.context.sim.tracer
        span = None if tracer is None else tracer.child(
            "pipelined.remove_session", component="pipelined",
            node=self.context.node)
        send = self._send
        for table_id in (TABLE_CLASSIFY, TABLE_POLICY, TABLE_EGRESS):
            send(FlowMod(FlowMod.DELETE_BY_COOKIE, table_id, 0, None, (),
                         imsi))
        send(MeterMod(MeterMod.DELETE, flows.meter_id))
        self.stats["sessions_removed"] += 1
        if span is not None:
            span.end()
        return True

    def set_session_rate(self, imsi: str, rate_mbps: float) -> None:
        """Reprogram the session's meter (throttling / un-throttling)."""
        sessions = self._sessions
        if imsi not in sessions:
            raise KeyError(f"no installed session for {imsi}")
        flows = sessions[imsi]
        flows.rate_mbps = rate_mbps
        self._send(MeterMod(
            MeterMod.MODIFY, flows.meter_id,
            MIN_METER_MBPS if MIN_METER_MBPS > rate_mbps else rate_mbps))
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
        (max-min against control-plane work, DESIGN.md §5), and
        :meth:`datapath_metrics` reports it in every check-in bundle,
        0.0 once the load is gone."""
        if offered_mbps < 0:
            raise ValueError(f"fleet load must be >= 0, got {offered_mbps}")
        self._fleet_offered_mbps = offered_mbps
        cost = self.context.config.hardware.up_cost_per_mbps
        self.context.cpu.set_fluid_demand("up", "fleet", offered_mbps * cost)

    # -- lookup-stack observability -----------------------------------------------

    def datapath_stats(self) -> Dict[str, Any]:
        """Classifier decomposition + microflow cache counters (see switch)."""
        return self.switch.datapath_stats()

    def datapath_metrics(self) -> Dict[str, float]:
        """This gateway's lookup-stack gauges and fleet load, as floats
        for its check-in bundle.  ``dp_fleet_offered_mbps`` is always
        present (0.0 without a fleet), so the bundle keeps one shape."""
        dp = self.switch.datapath_stats()
        mf = dp["microflow"]
        tables = dp["tables"]
        return {
            "dp_microflow_size": float(mf["size"]),
            "dp_microflow_hits": float(mf["hits"]),
            "dp_microflow_misses": float(mf["misses"]),
            "dp_microflow_evictions": float(mf["evictions"]),
            "dp_microflow_invalidations": float(mf["invalidations"]),
            "dp_rules": float(sum(t["rules"] for t in tables)),
            "dp_subtables": float(sum(t["subtables"] for t in tables)),
            "dp_residue_rules": float(sum(t["residue_rules"] for t in tables)),
            "dp_fleet_offered_mbps": float(self._fleet_offered_mbps),
        }
