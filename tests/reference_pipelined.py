"""Reference session rule programming: one mod at a time, the oracle.

``repro.core.agw.pipelined.Pipelined`` sends each session step's mods to
the switch (or the open batch) through one bound method, builds its
messages by position, and reuses a session's downlink match; the switch
handles a FlowMod inside ``apply`` and files the rule through the table's
quiet twins, counting the microflow invalidation inline.  This is the
path those replaced, kept as it ran:

- pipelined picks ``switch.apply`` or the batch's ``append`` in every
  step, and builds a fresh downlink match on every tunnel set;
- the switch hands each FlowMod to ``_apply_flow_mod`` and each table
  change calls ``on_change``;
- the table files through ``_classifier_add`` with the append-loop
  ``classifier_fields`` below, and removes through ``_classifier_discard``.

Two parts are the product's: ``batch()``'s rollback (an aborted batch
restores the sessions and stats, so the two can be compared after one)
and the bundle validator.  The reference also shares the
product's message classes, rule record, lookup and fluid evaluation, so
the two can only differ in what the control path files, removes, counts
and rejects - which is what ``test_pipelined_oracle.py`` compares.
"""

from __future__ import annotations

import dataclasses
import itertools
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence

from repro.core.agw.pipelined import (
    GTPA_PORT,
    QCI_TO_DSCP,
    RAN_PORT,
    SGI_PORT,
    TABLE_CLASSIFY,
    TABLE_EGRESS,
    TABLE_POLICY,
)
from repro.core.policy.enforcer import UNLIMITED_MBPS
from repro.dataplane import actions as act
from repro.dataplane.flowtable import FlowRule, FlowTable, _rule_order, _Subtable
from repro.dataplane.matcher import FlowMatch
from repro.dataplane.meter import TokenBucketMeter
from repro.dataplane.openflow import (
    BundleReply,
    FlowBundle,
    FlowMod,
    MeterMod,
    StatsRequest,
)
from repro.dataplane.packet import ip_packet
from repro.dataplane.switch import PipelineError, SoftwareSwitch


def classifier_fields(match: FlowMatch):
    """``FlowMatch.classifier_fields`` as a list-append loop."""
    names: List[Any] = []
    values: List[Any] = []
    for name in ("in_port", "ip_src", "ip_dst", "ip_proto", "dscp",
                 "l4_sport", "l4_dport", "tun_id"):
        value = getattr(match, name)
        if value is None:
            continue
        if name in ("ip_src", "ip_dst") and "/" in value:
            return None
        names.append(name)
        values.append(value)
    if match.registers:
        for reg in sorted(match.registers):
            names.append(("reg", reg))
            values.append(match.registers[reg])
    key = tuple(values)
    try:
        hash(key)
    except TypeError:
        return None
    return tuple(names), key


class ReferenceFlowTable(FlowTable):
    """``FlowTable`` filing and removing through per-rule helpers."""

    def __init__(self, table_id: int, name: str = ""):
        super().__init__(table_id, name)
        self._seq = itertools.count(1)

    def add(self, rule: FlowRule) -> FlowRule:
        self._by_cookie.setdefault(rule.cookie, []).append(rule)
        container = self._classifier_add(rule)
        if len(container) > 1:
            container.sort(key=_rule_order)
        self._count += 1
        self._notify()
        return rule

    def add_batch(self, rules) -> int:
        added = 0
        touched: Dict[int, List[FlowRule]] = {}
        for rule in rules:
            self._by_cookie.setdefault(rule.cookie, []).append(rule)
            container = self._classifier_add(rule)
            touched[id(container)] = container
            added += 1
        if added:
            for container in touched.values():
                if len(container) > 1:
                    container.sort(key=_rule_order)
            self._count += added
            self._notify()
        return added

    def remove_by_cookie(self, cookie: Any) -> int:
        return self._discard(self._by_cookie.pop(cookie, ()))

    def remove_matching(self, match: Optional[FlowMatch], priority: int) -> int:
        if match is None:
            return 0
        placed = classifier_fields(match)
        if placed is None:
            candidates: Sequence[FlowRule] = self._residue
        else:
            st = self._subtables.get(placed[0])
            candidates = st.buckets.get(placed[1], ()) if st is not None else ()
        doomed = [r for r in candidates
                  if r.priority == priority and r.match == match]
        for rule in doomed:
            bucket = self._by_cookie[rule.cookie]
            bucket.remove(rule)
            if not bucket:
                del self._by_cookie[rule.cookie]
        return self._discard(doomed)

    def _discard(self, doomed: Sequence[FlowRule]) -> int:
        if not doomed:
            return 0
        for rule in doomed:
            self._classifier_discard(rule)
        self._count -= len(doomed)
        self._notify()
        return len(doomed)

    def _classifier_add(self, rule: FlowRule) -> List[FlowRule]:
        rule.seq = next(self._seq)
        self._order = None
        placed = classifier_fields(rule.match)
        if placed is None:
            rule._mask = rule._key = None
            self._residue.append(rule)
            if not self._residue_dirty and rule.priority > self._residue_max:
                self._residue_max = rule.priority
            return self._residue
        mask, key = placed
        rule._mask, rule._key = mask, key
        st = self._subtables.get(mask)
        if st is None:
            st = self._subtables[mask] = _Subtable(mask)
        bucket = st.buckets.setdefault(key, [])
        bucket.append(rule)
        if not st.max_dirty and rule.priority > st.max_priority:
            st.max_priority = rule.priority
        return bucket

    def _classifier_discard(self, rule: FlowRule) -> None:
        self._order = None
        if rule._mask is None:
            self._residue.remove(rule)
            if rule.priority >= self._residue_max:
                self._residue_dirty = True
            return
        st = self._subtables[rule._mask]
        bucket = st.buckets[rule._key]
        bucket.remove(rule)
        if not bucket:
            del st.buckets[rule._key]
            if not st.buckets:
                del self._subtables[rule._mask]
                return
        if rule.priority >= st.max_priority:
            st.max_dirty = True


class ReferenceSwitch(SoftwareSwitch):
    """``SoftwareSwitch`` with the helper-per-mod control path."""

    def __init__(self, name: str, num_tables: int, clock):
        super().__init__(name, num_tables=num_tables, clock=clock)
        self.tables = [ReferenceFlowTable(i) for i in range(num_tables)]
        for table in self.tables:
            table.on_change = self._invalidate_microflows

    def apply(self, message: Any) -> Any:
        self.stats["control_msgs"] += 1
        if isinstance(message, FlowMod):
            self.stats["flow_ops"] += 1
            return self._apply_flow_mod(message)
        if isinstance(message, MeterMod):
            self.stats["flow_ops"] += 1
            return self._apply_meter_mod(message)
        if isinstance(message, FlowBundle):
            return self._apply_bundle(message)
        if isinstance(message, StatsRequest):
            return self._collect_stats(message)
        raise PipelineError(f"unknown control message {message!r}")

    def _apply_flow_mod(self, mod: FlowMod) -> Any:
        table = self._table(mod.table_id)
        if mod.command == FlowMod.ADD:
            match = mod.match or FlowMatch()
            return table.add(FlowRule(mod.priority, match, mod.actions,
                                      mod.cookie))
        if mod.command == FlowMod.DELETE_BY_COOKIE:
            return table.remove_by_cookie(mod.cookie)
        if mod.command == FlowMod.DELETE:
            return table.remove_matching(mod.match, mod.priority)
        raise PipelineError(f"unknown FlowMod command {mod.command!r}")

    def _apply_meter_mod(self, mod: MeterMod) -> Any:
        if mod.command == MeterMod.ADD:
            if mod.meter_id in self.meters:
                raise PipelineError(f"meter {mod.meter_id} exists")
            self.meters[mod.meter_id] = TokenBucketMeter(
                mod.meter_id, mod.rate_mbps, mod.burst_bytes)
            self._invalidate_microflows()
            return self.meters[mod.meter_id]
        if mod.command == MeterMod.MODIFY:
            meter = self.meters.get(mod.meter_id)
            if meter is None:
                raise PipelineError(f"no meter {mod.meter_id}")
            meter.reconfigure(mod.rate_mbps, mod.burst_bytes)
            self._invalidate_microflows()
            return meter
        if mod.command == MeterMod.DELETE:
            existed = self.meters.pop(mod.meter_id, None) is not None
            if existed:
                self._invalidate_microflows()
            return existed
        raise PipelineError(f"unknown MeterMod command {mod.command!r}")

    def _apply_bundle(self, bundle: FlowBundle) -> BundleReply:
        self._validate_bundle(bundle)
        self.stats["bundles"] += 1
        self.stats["flow_ops"] += len(bundle.mods)
        pending_adds: Dict[int, List[FlowRule]] = {}
        rules_added = 0

        def flush() -> None:
            nonlocal rules_added
            for table_id, rules in pending_adds.items():
                rules_added += self.tables[table_id].add_batch(rules)
            pending_adds.clear()

        for mod in bundle.mods:
            if isinstance(mod, FlowMod):
                if mod.command == FlowMod.ADD:
                    pending_adds.setdefault(mod.table_id, []).append(
                        FlowRule(mod.priority, mod.match or FlowMatch(),
                                 mod.actions, mod.cookie))
                else:
                    flush()
                    self._apply_flow_mod(mod)
            else:
                self._apply_meter_mod(mod)
        flush()
        return BundleReply(mods_applied=len(bundle.mods),
                           rules_added=rules_added)


@dataclasses.dataclass
class ReferenceSessionFlows:
    imsi: str
    ue_ip: str
    agw_teid: int
    enb_teid: Optional[int]
    enb_node: Optional[str]
    meter_id: int
    rate_mbps: float
    egress_port: str = "internet"


class ReferencePipelined:
    """``Pipelined``'s session programming, a mod at a time."""

    def __init__(self, node: str, clock):
        self.node = node
        self.switch = ReferenceSwitch(f"{node}-dp", 3, clock)
        for port in (RAN_PORT, SGI_PORT, GTPA_PORT):
            self.switch.add_port(port, lambda pkt: None)
        self._meter_ids = itertools.count(1)
        self._sessions: Dict[str, ReferenceSessionFlows] = {}
        self._pending: Optional[List[Any]] = None
        self.stats = {"sessions_installed": 0, "sessions_removed": 0,
                      "rate_changes": 0, "batches": 0}

    @contextmanager
    def batch(self):
        if self._pending is not None:
            yield self
            return
        saved = ({imsi: dataclasses.replace(flows)
                  for imsi, flows in self._sessions.items()},
                 dict(self.stats))
        self._pending = []
        try:
            yield self
            mods, self._pending = self._pending, None
            if mods:
                self.switch.apply(FlowBundle(mods=tuple(mods)))
                self.stats["batches"] += 1
        except BaseException:
            self._pending = None
            self._sessions, self.stats = saved
            raise

    def install_session(self, imsi: str, ue_ip: str, agw_teid: int,
                        rate_mbps: Optional[float],
                        egress_port: Optional[str] = None,
                        qci: int = 9) -> ReferenceSessionFlows:
        egress = egress_port or SGI_PORT
        if egress not in (SGI_PORT, GTPA_PORT):
            raise ValueError(f"unknown egress port {egress!r}")
        if imsi in self._sessions:
            self.remove_session(imsi)
        rate = rate_mbps if rate_mbps is not None else UNLIMITED_MBPS
        meter_id = next(self._meter_ids)
        apply = self.switch.apply if self._pending is None \
            else self._pending.append
        apply(MeterMod(command=MeterMod.ADD, meter_id=meter_id,
                       rate_mbps=max(rate, 1e-6)))
        flows = ReferenceSessionFlows(imsi, ue_ip, agw_teid, None, None,
                                      meter_id, rate, egress)
        tag = act.SetRegister("imsi", imsi)
        apply(FlowMod(
            command=FlowMod.ADD, table_id=TABLE_CLASSIFY, priority=10,
            match=FlowMatch(in_port=RAN_PORT, tun_id=agw_teid),
            actions=[act.PopGtpu(), act.SetRegister("direction", "uplink"),
                     tag, act.GotoTable(TABLE_POLICY)], cookie=imsi))
        apply(FlowMod(
            command=FlowMod.ADD, table_id=TABLE_CLASSIFY, priority=10,
            match=FlowMatch(in_port=egress, ip_dst=ue_ip),
            actions=[act.SetRegister("direction", "downlink"), tag,
                     act.GotoTable(TABLE_POLICY)], cookie=imsi))
        policy_actions = [act.Meter(meter_id), act.GotoTable(TABLE_EGRESS)]
        dscp = QCI_TO_DSCP.get(qci, 0)
        if dscp:
            policy_actions.insert(1, act.SetDscp(dscp))
        apply(FlowMod(
            command=FlowMod.ADD, table_id=TABLE_POLICY, priority=10,
            match=FlowMatch(registers={"imsi": imsi}),
            actions=policy_actions, cookie=imsi))
        apply(FlowMod(
            command=FlowMod.ADD, table_id=TABLE_EGRESS, priority=10,
            match=FlowMatch(registers={"imsi": imsi, "direction": "uplink"}),
            actions=[act.Output(egress)], cookie=imsi))
        self._sessions[imsi] = flows
        self.stats["sessions_installed"] += 1
        return flows

    def set_enb_tunnel(self, imsi: str, enb_teid: int, enb_node: str) -> None:
        flows = self._require(imsi)
        had_tunnel = flows.enb_teid is not None
        flows.enb_teid = enb_teid
        flows.enb_node = enb_node
        downlink = FlowMatch(registers={"imsi": imsi,
                                        "direction": "downlink"})
        apply = self.switch.apply if self._pending is None \
            else self._pending.append
        if had_tunnel:
            apply(FlowMod(command=FlowMod.DELETE, table_id=TABLE_EGRESS,
                          priority=10, match=downlink))
        apply(FlowMod(
            command=FlowMod.ADD, table_id=TABLE_EGRESS, priority=10,
            match=downlink,
            actions=[act.PushGtpu(teid=enb_teid, tunnel_src=self.node,
                                  tunnel_dst=enb_node),
                     act.Output(RAN_PORT)],
            cookie=imsi))

    def remove_session(self, imsi: str) -> bool:
        flows = self._sessions.pop(imsi, None)
        if flows is None:
            return False
        apply = self.switch.apply if self._pending is None \
            else self._pending.append
        for table_id in (TABLE_CLASSIFY, TABLE_POLICY, TABLE_EGRESS):
            apply(FlowMod(command=FlowMod.DELETE_BY_COOKIE,
                          table_id=table_id, cookie=imsi))
        apply(MeterMod(command=MeterMod.DELETE, meter_id=flows.meter_id))
        self.stats["sessions_removed"] += 1
        return True

    def set_session_rate(self, imsi: str, rate_mbps: float) -> None:
        flows = self._require(imsi)
        flows.rate_mbps = rate_mbps
        apply = self.switch.apply if self._pending is None \
            else self._pending.append
        apply(MeterMod(command=MeterMod.MODIFY, meter_id=flows.meter_id,
                       rate_mbps=max(rate_mbps, 1e-6)))
        self.stats["rate_changes"] += 1

    def has_session(self, imsi: str) -> bool:
        return imsi in self._sessions

    def session(self, imsi: str) -> Optional[ReferenceSessionFlows]:
        return self._sessions.get(imsi)

    def session_count(self) -> int:
        return len(self._sessions)

    def installed_imsis(self) -> List[str]:
        return list(self._sessions)

    def admitted_downlink_rate(self, imsi: str, offered_mbps: float) -> float:
        flows = self._sessions.get(imsi)
        if flows is None or flows.enb_teid is None:
            return 0.0
        admitted, _cookies = self.switch.evaluate_fluid(
            ip_packet("8.8.8.8", flows.ue_ip), flows.egress_port,
            offered_mbps)
        return admitted

    def datapath_stats(self) -> Dict[str, Any]:
        return self.switch.datapath_stats()

    def _require(self, imsi: str) -> ReferenceSessionFlows:
        flows = self._sessions.get(imsi)
        if flows is None:
            raise KeyError(f"no installed session for {imsi}")
        return flows
