"""The software switch: an OVS-like multi-table match/action pipeline.

Responsibilities (paper §3.5): (i) recognize flows of active sessions,
(ii) collect statistics, (iii) add/remove tunnel headers, (iv) enforce
per-subscriber policies such as rate limits (via meters).

The switch supports two execution modes:

- **Per-packet** (:meth:`SoftwareSwitch.inject`): full pipeline walk for a
  real :class:`~repro.dataplane.packet.Packet`; used by unit tests, the
  quickstart example, and protocol-level scenarios.
- **Fluid** (:meth:`SoftwareSwitch.evaluate_fluid`): classify a
  representative packet once and compute the *admitted rate* for an offered
  rate, applying any meters along the action chain.  Experiments use this to
  model hundreds of Mbps without simulating every packet.

The per-packet path is a two-level OVS-style lookup stack.  Each
:class:`~repro.dataplane.flowtable.FlowTable` classifies with tuple-space
search (O(#masks), not O(#rules)); above that, a **microflow cache** keyed
on :meth:`Packet.flow_key` memoizes the resolved rule chain of the first
walk, so subsequent packets of the same flow skip classification entirely
and just re-execute the chain's actions (meters still enforce, per-rule
stats still count).  The cache is invalidated by a per-switch generation
counter bumped by every structural change: any FlowMod/MeterMod, bundles,
``clear()``, ``remove_by_cookie`` - wired through ``FlowTable.on_change``
so even direct table mutations invalidate.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from . import actions as act
from .flowtable import FlowRule, FlowTable
from .matcher import FlowMatch
from .meter import TokenBucketMeter
from .openflow import (
    BarrierRequest,
    BundleReply,
    FlowBundle,
    FlowMod,
    FlowStatsEntry,
    MeterMod,
    PacketIn,
    StatsReply,
    StatsRequest,
)
from .packet import Packet, gtpu_decap, gtpu_encap

MAX_PIPELINE_STEPS = 64

# Default bound on memoized microflows (OVS's microflow cache is likewise
# a small fixed-size exact-match cache; stale/overflow entries just fall
# back to classification).
MICROFLOW_CAPACITY = 8192


class PipelineError(Exception):
    """Raised on malformed pipelines (loops, unknown tables/meters)."""


class SoftwareSwitch:
    """A programmable multi-table software datapath."""

    def __init__(self, name: str, num_tables: int = 4,
                 clock: Optional[Callable[[], float]] = None):
        if num_tables < 1:
            raise ValueError("need at least one table")
        self.name = name
        self.tables: List[FlowTable] = [FlowTable(i) for i in range(num_tables)]
        self.meters: Dict[int, TokenBucketMeter] = {}
        self._ports: Dict[str, Callable[[Packet], None]] = {}
        self._controller: Optional[Callable[[PacketIn], None]] = None
        self._clock = clock or (lambda: 0.0)
        # control_msgs counts apply() calls (a bundle is ONE message);
        # flow_ops counts individual mods, batched or not.  The hot-path
        # benchmarks compare the two to show bundle coalescing.
        # mf_* counters cover the microflow cache (hits skip classification).
        self.stats = {"rx": 0, "tx": 0, "dropped": 0, "to_controller": 0,
                      "meter_dropped": 0, "control_msgs": 0, "flow_ops": 0,
                      "bundles": 0, "mf_hits": 0, "mf_misses": 0,
                      "mf_evictions": 0, "mf_invalidations": 0,
                      "mf_uncacheable": 0}
        # Microflow cache: flow_key -> (rule chain, generation).  Entries
        # from an older generation are stale and dropped on sight.
        self.microflow_enabled = True
        self.microflow_capacity = MICROFLOW_CAPACITY
        self._mf_cache: Dict[Any, Tuple[Tuple[FlowRule, ...], int]] = {}
        self._generation = 0
        for table in self.tables:
            table.on_change = self._invalidate_microflows

    # -- ports & controller ----------------------------------------------------

    def add_port(self, name: str, deliver: Callable[[Packet], None]) -> None:
        if name in self._ports:
            raise ValueError(f"port {name!r} already exists on {self.name}")
        self._ports[name] = deliver

    def remove_port(self, name: str) -> None:
        self._ports.pop(name, None)

    def ports(self) -> List[str]:
        return list(self._ports)

    def set_controller(self, callback: Callable[[PacketIn], None]) -> None:
        self._controller = callback

    # -- control channel ---------------------------------------------------------

    def apply(self, message: Any) -> Any:
        """Apply a control message (FlowMod/MeterMod/Bundle/Stats/Barrier)."""
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
        if isinstance(message, BarrierRequest):
            return True  # mods apply synchronously in this model
        raise PipelineError(f"unknown control message {message!r}")

    def _table(self, table_id: int) -> FlowTable:
        if not 0 <= table_id < len(self.tables):
            raise PipelineError(f"no table {table_id} on {self.name}")
        return self.tables[table_id]

    def _apply_flow_mod(self, mod: FlowMod) -> Any:
        table = self._table(mod.table_id)
        if mod.command == FlowMod.ADD:
            match = mod.match or FlowMatch()
            return table.add(FlowRule(mod.priority, match, mod.actions, mod.cookie))
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

    # -- bundles (atomic batched programming) -------------------------------------

    def _validate_bundle(self, bundle: FlowBundle) -> None:
        """Reject the whole bundle before any mod is applied (atomicity)."""
        meter_ids = set(self.meters)
        for mod in bundle.mods:
            if isinstance(mod, FlowMod):
                self._table(mod.table_id)  # raises on bad table
                if mod.command == FlowMod.ADD and mod.priority < 0:
                    raise PipelineError("priority must be >= 0")
                if mod.command not in (FlowMod.ADD, FlowMod.DELETE,
                                       FlowMod.DELETE_BY_COOKIE):
                    raise PipelineError(
                        f"unknown FlowMod command {mod.command!r}")
            elif isinstance(mod, MeterMod):
                if mod.command == MeterMod.ADD:
                    if mod.meter_id in meter_ids:
                        raise PipelineError(f"meter {mod.meter_id} exists")
                    meter_ids.add(mod.meter_id)
                elif mod.command == MeterMod.MODIFY:
                    if mod.meter_id not in meter_ids:
                        raise PipelineError(f"no meter {mod.meter_id}")
                elif mod.command == MeterMod.DELETE:
                    meter_ids.discard(mod.meter_id)
                else:
                    raise PipelineError(
                        f"unknown MeterMod command {mod.command!r}")
            else:
                raise PipelineError(f"bundle cannot carry {mod!r}")

    def _apply_bundle(self, bundle: FlowBundle) -> BundleReply:
        """Apply every mod or none; consecutive rule ADDs batch per table."""
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
                    # Deletes must see every earlier ADD: flush preserves
                    # ordering.  (Meters live in their own namespace, so
                    # MeterMods apply inline without forcing a flush - the
                    # common all-ADD bundle is then ONE add_batch, and one
                    # microflow invalidation, per table.)
                    flush()
                    self._apply_flow_mod(mod)
            else:
                self._apply_meter_mod(mod)
        flush()
        return BundleReply(mods_applied=len(bundle.mods),
                           rules_added=rules_added)

    def _collect_stats(self, request: StatsRequest) -> StatsReply:
        entries = []
        tables = (self.tables if request.table_id is None
                  else [self._table(request.table_id)])
        for table in tables:
            # Cookie-filtered requests (per-session accounting) go through
            # the cookie index: O(rules-per-cookie), not O(table).
            rules = (table.find_by_cookie(request.cookie)
                     if request.cookie is not None else table.rules())
            for rule in rules:
                entries.append(FlowStatsEntry(
                    table_id=table.table_id, cookie=rule.cookie,
                    priority=rule.priority, packets=rule.stats.packets,
                    bytes=rule.stats.bytes))
        return StatsReply(entries=tuple(entries))

    # -- per-packet execution ------------------------------------------------------

    def inject(self, pkt: Packet, in_port: str) -> None:
        """Run a packet through the pipeline starting at table 0.

        First packet of a flow: classify table-by-table (tuple-space
        search) and memoize the traversed rule chain under the packet's
        flow key.  Subsequent packets of the same flow re-execute the
        cached chain - meters, stats, and header rewrites still apply -
        without touching the classifiers.
        """
        self.stats["rx"] += 1
        if not self.microflow_enabled:
            self._walk(pkt, in_port)
            return
        key = pkt.flow_key(in_port)
        if key is None:
            self.stats["mf_uncacheable"] += 1
            self._walk(pkt, in_port)
            return
        cache = self._mf_cache
        entry = cache.get(key)
        if entry is not None:
            if entry[1] == self._generation:
                self.stats["mf_hits"] += 1
                self._walk(pkt, in_port, chain=entry[0])
                return
            del cache[key]  # stale generation
        self.stats["mf_misses"] += 1
        chain = self._walk(pkt, in_port)
        if chain is not None:
            if len(cache) >= self.microflow_capacity:
                cache.pop(next(iter(cache)))  # FIFO eviction
                self.stats["mf_evictions"] += 1
            cache[key] = (tuple(chain), self._generation)

    def _invalidate_microflows(self) -> None:
        """Bump the generation; every cached chain becomes stale at once."""
        self._generation += 1
        self.stats["mf_invalidations"] += 1

    def _walk(self, pkt: Packet, in_port: Optional[str],
              chain: Optional[Tuple[FlowRule, ...]] = None
              ) -> Optional[List[FlowRule]]:
        """Execute the pipeline; with ``chain``, replay it sans lookups.

        Returns the traversed rule list when the walk is safe to memoize
        (it ended in a deterministic terminal: Output, Drop, or implicit
        drop).  Walks that punt to the controller or die at a meter return
        None - the controller may install rules, and meter verdicts are
        per-packet, so neither outcome may be cached.
        """
        record: Optional[List[FlowRule]] = [] if chain is None else None
        table_id = 0
        steps = 0
        pos = 0
        while True:
            if chain is None:
                if steps > MAX_PIPELINE_STEPS:
                    raise PipelineError("pipeline loop detected")
                rule = self._table(table_id).lookup(pkt, in_port)
                if rule is None:
                    self._punt(pkt, in_port, table_id, "table-miss")
                    return None
                record.append(rule)
            else:
                if pos >= len(chain):  # defensive: chains end at a terminal
                    return None
                rule = chain[pos]
                pos += 1
            rule.stats.packets += 1
            rule.stats.bytes += pkt.size_bytes
            advanced = False
            for action in rule.actions:
                if isinstance(action, act.Drop):
                    self.stats["dropped"] += 1
                    return record
                if isinstance(action, act.Output):
                    deliver = self._ports.get(action.port)
                    if deliver is None:
                        self.stats["dropped"] += 1
                    else:
                        self.stats["tx"] += 1
                        deliver(pkt)
                    return record
                if isinstance(action, act.ToController):
                    self._punt(pkt, in_port, table_id, action.reason)
                    return None
                if isinstance(action, act.GotoTable):
                    table_id = action.table_id
                    steps += 1
                    advanced = True
                    break
                if isinstance(action, act.SetRegister):
                    pkt.metadata[action.register] = action.value
                elif isinstance(action, act.SetDscp):
                    ip = pkt.inner_ip()
                    if ip is not None:
                        ip.dscp = action.dscp
                elif isinstance(action, act.Meter):
                    meter = self.meters.get(action.meter_id)
                    if meter is None:
                        raise PipelineError(f"rule references missing meter "
                                            f"{action.meter_id}")
                    if not meter.allow(pkt.size_bytes, self._clock()):
                        self.stats["meter_dropped"] += 1
                        return None
                elif isinstance(action, act.PushGtpu):
                    gtpu_encap(pkt, action.teid, action.tunnel_src,
                               action.tunnel_dst)
                elif isinstance(action, act.PopGtpu):
                    gtpu_decap(pkt)
                else:
                    raise PipelineError(f"unknown action {action!r}")
            if not advanced:
                # Action list exhausted without a terminal: implicit drop.
                self.stats["dropped"] += 1
                return record

    def datapath_stats(self) -> Dict[str, Any]:
        """Lookup-stack observability: microflow cache + per-table subtables."""
        return {
            "generation": self._generation,
            "microflow": {
                "enabled": self.microflow_enabled,
                "size": len(self._mf_cache),
                "capacity": self.microflow_capacity,
                "hits": self.stats["mf_hits"],
                "misses": self.stats["mf_misses"],
                "evictions": self.stats["mf_evictions"],
                "invalidations": self.stats["mf_invalidations"],
                "uncacheable": self.stats["mf_uncacheable"],
            },
            "tables": [dict(table.classifier_stats(),
                            table_id=table.table_id)
                       for table in self.tables],
        }

    def _punt(self, pkt: Packet, in_port: Optional[str], table_id: int,
              reason: str) -> None:
        self.stats["to_controller"] += 1
        if self._controller is not None:
            self._controller(PacketIn(packet=pkt, in_port=in_port,
                                      table_id=table_id, reason=reason))
        else:
            self.stats["dropped"] += 1

    # -- fluid execution -------------------------------------------------------------

    def evaluate_fluid(self, representative: Packet, in_port: str,
                       offered_mbps: float) -> Tuple[float, List[Any]]:
        """Classify once and compute the admitted rate for a fluid flow.

        Returns ``(admitted_mbps, cookie_chain)`` where ``cookie_chain``
        lists the cookies of the rules traversed (for accounting
        attribution).  Table misses and Drop actions admit 0.
        """
        if offered_mbps < 0:
            raise ValueError("offered rate must be >= 0")
        admitted = offered_mbps
        cookies: List[Any] = []
        table_id = 0
        steps = 0
        pkt = representative.copy()
        port: Optional[str] = in_port
        while True:
            if steps > MAX_PIPELINE_STEPS:
                raise PipelineError("pipeline loop detected")
            table = self._table(table_id)
            rule = table.lookup(pkt, port)
            if rule is None:
                return 0.0, cookies
            cookies.append(rule.cookie)
            advanced = False
            for action in rule.actions:
                if isinstance(action, act.Drop):
                    return 0.0, cookies
                if isinstance(action, act.Output):
                    if action.port not in self._ports:
                        return 0.0, cookies
                    return admitted, cookies
                if isinstance(action, act.ToController):
                    return 0.0, cookies
                if isinstance(action, act.GotoTable):
                    table_id = action.table_id
                    steps += 1
                    advanced = True
                    break
                if isinstance(action, act.SetRegister):
                    pkt.metadata[action.register] = action.value
                elif isinstance(action, act.SetDscp):
                    ip = pkt.inner_ip()
                    if ip is not None:
                        ip.dscp = action.dscp
                elif isinstance(action, act.Meter):
                    meter = self.meters.get(action.meter_id)
                    if meter is None:
                        raise PipelineError(f"rule references missing meter "
                                            f"{action.meter_id}")
                    admitted = meter.shape(admitted)
                elif isinstance(action, act.PushGtpu):
                    gtpu_encap(pkt, action.teid, action.tunnel_src,
                               action.tunnel_dst)
                elif isinstance(action, act.PopGtpu):
                    gtpu_decap(pkt)
                else:
                    raise PipelineError(f"unknown action {action!r}")
            if not advanced:
                return 0.0, cookies  # implicit drop

    def record_fluid_usage(self, cookie: Any, mbps: float, duration: float) -> None:
        """Attribute fluid throughput to the rules with ``cookie`` (stats)."""
        byte_count = int(mbps * 1e6 / 8.0 * duration)
        for table in self.tables:
            for rule in table.find_by_cookie(cookie):
                rule.stats.bytes += byte_count
                rule.stats.fluid_byte_seconds += mbps * duration
