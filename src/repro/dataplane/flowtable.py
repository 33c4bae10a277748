"""Flow tables: priority-ordered match/action rules with statistics.

Mirrors the OVS/OpenFlow table model that Magma's ``pipelined`` programs:
each table holds rules at integer priorities; the highest-priority matching
rule wins; every hit updates the rule's packet/byte counters (the paper's
data-plane responsibility (ii): "collecting statistics for those flows").

Scaling notes.  A table *is* two indexes over one rule set and nothing
else: the tuple-space classifier (by match) and the cookie index (by
session).  The *control* hot path (session programming) is local to the
buckets it touches: an add appends to one classifier bucket and one cookie
bucket (re-sorting that classifier bucket only when it holds more than one
rule; :meth:`FlowTable.add_batch` sorts each touched bucket once), a strict
delete probes the one bucket an equal match can live in, and a cookie
delete pops its cookie bucket - none of them scans or rebuilds the table.
The priority-ordered flat view (:meth:`FlowTable.rules`) is sorted on
demand.  The *data* hot path (:meth:`FlowTable.lookup`) is a
tuple-space-search classifier, as in real OVS: rules are grouped by their
wildcard mask (the set of constrained :class:`FlowMatch` fields), each mask
group is an exact-match hash subtable keyed by the extracted field tuple,
and lookup probes subtables in descending max-priority order with early
exit - O(#masks) hash probes instead of O(#rules) predicate evaluations.
Rules that cannot be hashed exactly (CIDR prefixes, unhashable register
values) fall back to a small linear "residue" list that participates in
the same priority order.

A :class:`FlowRule` instance belongs to at most one table at a time: the
table stamps a per-table insertion sequence number on the rule to break
priority ties exactly like the linear scan did (first-added wins).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .actions import Action
from .matcher import FlowMatch
from .packet import GtpuHeader, Packet, TcpHeader, UdpHeader

_rule_ids = itertools.count(1)


def _rule_order(rule: "FlowRule") -> Tuple[int, int]:
    """Sort key reproducing linear-scan order: priority desc, insertion asc."""
    return (-rule.priority, rule.seq)


@dataclass
class FlowStats:
    packets: int = 0
    bytes: int = 0
    # Fluid accounting (experiments): admitted rate integrated over time.
    fluid_byte_seconds: float = 0.0


class FlowRule:
    """A single match/action entry."""

    def __init__(self, priority: int, match: FlowMatch,
                 actions: Sequence[Action], cookie: Any = None):
        if priority < 0:
            raise ValueError("priority must be >= 0")
        self.rule_id = next(_rule_ids)
        self.priority = priority
        self.match = match
        self.actions = list(actions)
        self.cookie = cookie
        self.stats = FlowStats()
        # Classifier placement, stamped by the owning FlowTable.
        self.seq = 0
        self._mask: Optional[Tuple[Any, ...]] = None
        self._key: Optional[Tuple[Any, ...]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlowRule id={self.rule_id} prio={self.priority} "
                f"cookie={self.cookie!r}>")


class _Subtable:
    """An exact-match hash table for one wildcard mask."""

    __slots__ = ("mask", "buckets", "max_priority", "max_dirty")

    def __init__(self, mask: Tuple[Any, ...]):
        self.mask = mask
        # key tuple -> rules sorted by (priority desc, insertion asc).
        self.buckets: Dict[Tuple[Any, ...], List[FlowRule]] = {}
        self.max_priority = -1
        self.max_dirty = False


class FlowTable:
    """A rule set indexed by match (classifier) and by cookie."""

    def __init__(self, table_id: int, name: str = ""):
        self.table_id = table_id
        self.name = name or f"table-{table_id}"
        self._count = 0
        self._by_cookie: Dict[Any, List[FlowRule]] = {}
        # Tuple-space-search classifier state.
        self._subtables: Dict[Tuple[Any, ...], _Subtable] = {}
        self._residue: List[FlowRule] = []          # sorted by _rule_order
        self._residue_max = -1
        self._residue_dirty = False
        # Cached (max_priority, subtable-or-None) groups, priority desc;
        # None marks the residue group.  Invalidated by any mutation.
        self._order: Optional[List[Tuple[int, Optional[_Subtable]]]] = None
        self._seq = itertools.count(1)
        # Structural-change hook: the owning switch uses this to invalidate
        # its microflow cache on any rule add/remove/clear.
        self.on_change: Optional[Callable[[], None]] = None
        self.lookups = 0
        self.matches = 0

    def __len__(self) -> int:
        return self._count

    def rules(self) -> List[FlowRule]:
        """Every rule in linear-scan order, sorted on demand (O(n log n)).

        ``seq`` is stamped in insertion order, so ``_rule_order`` is exactly
        the order a stable priority-ordered list would have kept.
        """
        return sorted(itertools.chain.from_iterable(self._by_cookie.values()),
                      key=_rule_order)

    def add(self, rule: FlowRule) -> FlowRule:
        """Insert; equal priorities keep insertion order (first added wins)."""
        self._by_cookie.setdefault(rule.cookie, []).append(rule)
        container = self._classifier_add(rule)
        if len(container) > 1:
            container.sort(key=_rule_order)
        self._count += 1
        self._notify()
        return rule

    def add_batch(self, rules: Iterable[FlowRule]) -> int:
        """Insert many rules, sorting each touched bucket once (bundle path).

        Equivalent to calling :meth:`add` per rule, with one ``on_change``
        notification for the whole batch.
        """
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
        """Delete all rules with this cookie; returns how many."""
        return self._discard(self._by_cookie.pop(cookie, ()))

    def remove_matching(self, match: Optional[FlowMatch], priority: int) -> int:
        """Delete every rule with this exact match and priority.

        This is the OpenFlow strict-DELETE.  Matches that compare equal
        produce the same ``classifier_fields()``, so every rule it can hit
        sits in one classifier bucket (or on the residue list): the probe
        costs that bucket, not the table.
        """
        if match is None:
            return 0
        placed = match.classifier_fields()
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
        """Shared tail of every removal; ``doomed`` already left the cookie
        index.  Notifies once, and not at all when nothing was hit."""
        if not doomed:
            return 0
        for rule in doomed:
            self._classifier_discard(rule)
        self._count -= len(doomed)
        self._notify()
        return len(doomed)

    def clear(self) -> None:
        self._count = 0
        self._by_cookie.clear()
        self._subtables.clear()
        self._residue.clear()
        self._residue_max = -1
        self._residue_dirty = False
        self._order = None
        self._notify()

    # -- tuple-space-search lookup ------------------------------------------------

    def lookup(self, pkt: Packet, in_port: Optional[str] = None) -> Optional[FlowRule]:
        """Highest-priority matching rule, or None on table miss."""
        self.lookups += 1
        rule = self._classify(pkt, in_port)
        if rule is not None:
            self.matches += 1
        return rule

    def _classify(self, pkt: Packet, in_port: Optional[str]) -> Optional[FlowRule]:
        order = self._group_order()
        if not order:
            return None
        # Extract the header context once; each subtable probe is then a
        # cheap tuple build + one hash lookup.
        ip = pkt.inner_ip()
        l4 = pkt.find(UdpHeader) or pkt.find(TcpHeader)
        gtpu = pkt.find(GtpuHeader)
        md = pkt.metadata
        teid = gtpu.teid if gtpu is not None else md.get("decapped_teid")

        best: Optional[FlowRule] = None
        best_prio = -1
        best_seq = 0
        for max_prio, st in order:
            if best is not None and max_prio < best_prio:
                break  # no remaining group can beat the current winner
            if st is None:
                best, best_prio, best_seq = self._scan_residue(
                    pkt, in_port, best, best_prio, best_seq)
                continue
            parts = []
            for f in st.mask:
                if f.__class__ is tuple:          # ("reg", name)
                    parts.append(md.get(f[1]))
                elif f == "in_port":
                    parts.append(in_port)
                elif f == "ip_src":
                    parts.append(ip.src if ip is not None else None)
                elif f == "ip_dst":
                    parts.append(ip.dst if ip is not None else None)
                elif f == "ip_proto":
                    parts.append(ip.proto if ip is not None else None)
                elif f == "dscp":
                    parts.append(ip.dscp if ip is not None else None)
                elif f == "l4_sport":
                    parts.append(l4.sport if l4 is not None else None)
                elif f == "l4_dport":
                    parts.append(l4.dport if l4 is not None else None)
                else:                              # "tun_id"
                    parts.append(teid)
            try:
                bucket = st.buckets.get(tuple(parts))
            except TypeError:
                # Unhashable packet metadata: fall back to evaluating the
                # subtable's (identical-predicate) buckets directly.
                bucket = None
                for b in st.buckets.values():
                    if b[0].match.matches(pkt, in_port):
                        if bucket is None or _rule_order(b[0]) < _rule_order(bucket[0]):
                            bucket = b
            if bucket:
                cand = bucket[0]
                if (cand.priority > best_prio
                        or (cand.priority == best_prio and cand.seq < best_seq)):
                    best, best_prio, best_seq = cand, cand.priority, cand.seq
        return best

    def _scan_residue(self, pkt: Packet, in_port: Optional[str],
                      best: Optional[FlowRule], best_prio: int,
                      best_seq: int) -> Tuple[Optional[FlowRule], int, int]:
        for rule in self._residue:
            if rule.priority < best_prio or (rule.priority == best_prio
                                             and rule.seq > best_seq):
                break  # sorted: nothing later can beat the current winner
            if rule.match.matches(pkt, in_port):
                return rule, rule.priority, rule.seq
        return best, best_prio, best_seq

    def _group_order(self) -> List[Tuple[int, Optional[_Subtable]]]:
        order = self._order
        if order is None:
            for st in self._subtables.values():
                if st.max_dirty:
                    st.max_priority = max(r.priority
                                          for b in st.buckets.values()
                                          for r in b)
                    st.max_dirty = False
            if self._residue_dirty:
                self._residue_max = max(
                    (r.priority for r in self._residue), default=-1)
                self._residue_dirty = False
            order = [(st.max_priority, st) for st in self._subtables.values()]
            if self._residue:
                order.append((self._residue_max, None))
            order.sort(key=lambda e: -e[0])
            self._order = order
        return order

    def classifier_stats(self) -> Dict[str, int]:
        """Observability: how the rule set decomposed into subtables."""
        return {"rules": self._count,
                "subtables": len(self._subtables),
                "residue_rules": len(self._residue),
                "lookups": self.lookups,
                "matches": self.matches}

    def find_by_cookie(self, cookie: Any) -> List[FlowRule]:
        return list(self._by_cookie.get(cookie, ()))

    # -- classifier maintenance ---------------------------------------------------

    def _classifier_add(self, rule: FlowRule) -> List[FlowRule]:
        """Place ``rule``; returns the (possibly unsorted) container list."""
        rule.seq = next(self._seq)
        self._order = None
        placed = rule.match.classifier_fields()
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
        bucket = st.buckets.get(key)
        if bucket is None:
            bucket = st.buckets[key] = []
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

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change()
