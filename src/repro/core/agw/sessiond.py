"""sessiond: session and policy management (generic across RANs).

Per Table 1, this is the MME/PCRF (LTE), SMF/PCF (5G), and RADIUS (WiFi)
role collapsed into one technology-agnostic service.  A *session* is the
unit of runtime state the paper localizes to one AGW (§3.2-3.4): the UE's
IP, its tunnel endpoints, its policy enforcement state, its usage counters,
and its online-charging quota.

Sessions are checkpointed by ``magmad`` and restorable after a crash
(crash-recovery failure model, §3.3/3.4).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ...lte.identifiers import TeidAllocator
from ...obs.tracing import NOOP_SPAN
from ...record import record
from ...sim.kernel import Event
from ..federation.modes import user_plane_egress
from ..policy.accounting import AccountingLog, ChargingDataRecord
from ..policy.enforcer import EnforcementState, UNLIMITED_MBPS
from ..policy.rules import ChargingMode
from .context import AgwContext
from .mobilityd import Mobilityd
from .pipelined import GTPA_PORT, SGI_PORT, Pipelined
from .policydb import PolicyDb
from .subscriberdb import SubscriberDb


class SessionError(Exception):
    """Session establishment or management failure."""


class OcsClient:
    """Interface to the online charging system (local or over RPC)."""

    def request_quota(self, imsi: str, agw_id: str) -> Event:
        """Ask for a quota grant of the OCS's default size."""
        raise NotImplementedError

    def report_usage(self, grant_id: int, used_bytes: int,
                     final: bool) -> Event:
        raise NotImplementedError


class LocalOcsClient(OcsClient):
    """Directly wraps an in-process OCS (tests and single-box setups)."""

    def __init__(self, sim, ocs):
        self.sim = sim
        self.ocs = ocs

    def request_quota(self, imsi, agw_id):
        ev = self.sim.event("ocs.request_quota")
        grant = self.ocs.request_quota(imsi, agw_id)
        if grant is None:
            ev.succeed(None)
        else:
            ev.succeed({"grant_id": grant.grant_id,
                        "granted_bytes": grant.granted_bytes})
        return ev

    def report_usage(self, grant_id, used_bytes, final):
        ev = self.sim.event("ocs.report_usage")
        try:
            self.ocs.report_usage(grant_id, used_bytes, final=final)
            ev.succeed(True)
        except Exception as exc:  # noqa: BLE001 - surfaced to caller
            ev.fail(exc)
        return ev


class RpcOcsClient(OcsClient):
    """OCS reached over the network (the production arrangement, §3.4)."""

    def __init__(self, channel, deadline: float = 5.0):
        self.channel = channel
        self.deadline = deadline

    def request_quota(self, imsi, agw_id):
        # A None size asks for the OCS's default grant.
        return self.channel.call("ocs", "request_quota",
                                 {"imsi": imsi, "agw_id": agw_id,
                                  "requested_bytes": None},
                                 deadline=self.deadline)

    def report_usage(self, grant_id, used_bytes, final):
        return self.channel.call("ocs", "report_usage",
                                 {"grant_id": grant_id,
                                  "used_bytes": used_bytes, "final": final},
                                 deadline=self.deadline)


class SessionState:
    CREATING = "creating"
    ACTIVE = "active"
    BLOCKED = "blocked"      # online charging: out of quota
    TERMINATED = "terminated"


@record
class SessionRecord:
    session_id: str
    imsi: str
    ue_ip: str
    policy_id: str
    agw_teid: int
    enb_teid: Optional[int] = None
    enb_node: Optional[str] = None
    state: str = SessionState.CREATING
    start_time: float = 0.0
    bytes_dl: int = 0
    bytes_ul: int = 0
    installed_rate_mbps: float = UNLIMITED_MBPS
    enforcement: Optional[EnforcementState] = None
    cumulative_quota_used: int = 0
    home_routed: bool = False
    connected: bool = True   # ECM state: False = idle (session anchored)


class Sessiond:
    """Session lifecycle, usage accounting, and policy reaction."""

    def __init__(self, context: AgwContext, subscriberdb: SubscriberDb,
                 policydb: PolicyDb, mobilityd: Mobilityd,
                 pipelined: Pipelined, ocs_client: Optional[OcsClient] = None,
                 accounting: Optional[AccountingLog] = None):
        self.context = context
        self.subscriberdb = subscriberdb
        self.policydb = policydb
        self.mobilityd = mobilityd
        self.pipelined = pipelined
        self.ocs_client = ocs_client
        # Explicit None check: an empty AccountingLog is falsy (len == 0).
        self.accounting = AccountingLog() if accounting is None else accounting
        self._teids = TeidAllocator(start=0x1000)
        self._next_session_num = 1
        self._sessions: Dict[str, SessionRecord] = {}
        # Cohort-aggregated fleet sessions (workloads.fleet): a count, not
        # per-IMSI records.  Folded into session_count()/telemetry so an
        # aggregated population looks like real load everywhere above this
        # layer; deliberately excluded from checkpoints — it is synthetic
        # workload state owned by the fleet, re-injected on the next tick.
        self.fleet_sessions = 0
        self.stats = {"created": 0, "terminated": 0, "blocked": 0,
                      "quota_refills": 0, "quota_denials": 0}

    # -- lifecycle --------------------------------------------------------------------

    def create_session(self, imsi: str):
        """Generator: establish a session; raises SessionError on failure."""
        tracer = self.context.sim.tracer
        span = NOOP_SPAN if tracer is None else tracer.child(
            "sessiond.create_session", component="sessiond",
            node=self.context.node)
        status = "error"
        try:
            with span.active():
                record = yield from self._create_session(imsi)
            status = "ok"
            return record
        finally:
            span.end(status)

    def _create_session(self, imsi: str):
        sim = self.context.sim
        profile = self.subscriberdb.get(imsi)
        if profile is None:
            raise SessionError(f"unknown or inactive subscriber {imsi}")
        if imsi in self._sessions:
            # Re-attach while a stale session exists: replace it.
            self.terminate_session(imsi, reason="reattach")
        policy = self.policydb.get(profile.policy_id)
        try:
            ue_ip = self.mobilityd.allocate(imsi)
        except Exception as exc:  # IpPoolExhausted -> a clean NAS reject
            raise SessionError(f"no IP available: {exc}") from exc
        agw_teid = self._teids.allocate()
        enforcement = EnforcementState(policy, session_start=sim.now)
        record = SessionRecord(
            session_id=self._new_session_id(),
            imsi=imsi, ue_ip=ue_ip, policy_id=policy.policy_id,
            agw_teid=agw_teid, start_time=sim.now, enforcement=enforcement)
        if policy.charging == ChargingMode.ONLINE:
            if self.ocs_client is None:
                self._release(record)
                raise SessionError("online-charged policy but no OCS configured")
            grant = yield self.ocs_client.request_quota(imsi,
                                                        self.context.node)
            if grant is None:
                self._release(record)
                self.stats["quota_denials"] += 1
                raise SessionError(f"OCS denied quota for {imsi}")
            enforcement.add_quota(grant["grant_id"], grant["granted_bytes"])
        decision = enforcement.decide(sim.now)
        egress = user_plane_egress(self.context.config.deployment_mode,
                                   profile.federated)
        egress_port = GTPA_PORT if egress == "gtpa" else SGI_PORT
        record.home_routed = egress == "gtpa"
        self.pipelined.install_session(imsi, ue_ip, agw_teid,
                                       decision.allowed_mbps,
                                       egress_port=egress_port,
                                       qci=policy.qci)
        record.installed_rate_mbps = decision.allowed_mbps
        record.state = SessionState.ACTIVE
        self._sessions[imsi] = record
        self.stats["created"] += 1
        return record

    def set_enb_tunnel(self, imsi: str, enb_teid: int, enb_node: str) -> None:
        record = self._require(imsi)
        record.enb_teid = enb_teid
        record.enb_node = enb_node
        self.pipelined.set_enb_tunnel(imsi, enb_teid, enb_node)

    def terminate_session(self, imsi: str, reason: str = "detach") -> bool:
        record = self._sessions.pop(imsi, None)
        if record is None:
            return False
        record.state = SessionState.TERMINATED
        sim = self.context.sim
        tracer = sim.tracer
        with NOOP_SPAN if tracer is None else tracer.child(
                "sessiond.terminate_session", component="sessiond",
                node=self.context.node, tags={"reason": reason}):
            enforcement = record.enforcement
            if (enforcement is not None and self.ocs_client is not None
                    and enforcement.quota_grant_id is not None):
                self.context.sim.call_later(0.0, self._report_final_usage,
                                            record,
                                            enforcement.quota_grant_id)
            self.accounting.append(ChargingDataRecord(
                imsi=imsi, agw_id=self.context.node,
                session_id=record.session_id, start_time=record.start_time,
                end_time=sim.now, bytes_dl=record.bytes_dl,
                bytes_ul=record.bytes_ul, policy_id=record.policy_id))
            self.pipelined.remove_session(imsi)
            self.mobilityd.release(imsi)
            self._teids.release(record.agw_teid)
            self.stats["terminated"] += 1
        return True

    def _release(self, record: SessionRecord) -> None:
        self.mobilityd.release(record.imsi)
        self._teids.release(record.agw_teid)

    def _new_session_id(self) -> str:
        session_id = f"{self.context.node}-s{self._next_session_num}"
        self._next_session_num += 1
        return session_id

    def _seed_session_id(self, session_id: str) -> None:
        """Advance the id counter past a restored session's number.

        Restored ids minted by *this* node name must never be minted again;
        ids from another gateway (failover promotion) use a different
        prefix and cannot collide, so they do not advance the counter.
        """
        prefix = f"{self.context.node}-s"
        if not session_id.startswith(prefix):
            return
        try:
            number = int(session_id[len(prefix):])
        except ValueError:
            return
        if number >= self._next_session_num:
            self._next_session_num = number + 1

    # -- usage & policy reaction ---------------------------------------------------------

    def record_usage(self, imsi: str, dl_bytes: int, ul_bytes: int) -> None:
        """Account traffic and react to policy state changes."""
        record = self._sessions.get(imsi)
        if record is None:
            return
        now = self.context.sim.now
        record.bytes_dl += dl_bytes
        record.bytes_ul += ul_bytes
        enforcement = record.enforcement
        used = dl_bytes + ul_bytes
        enforcement.record_usage(used, now)
        record.cumulative_quota_used += used
        decision = enforcement.decide(now)
        if decision.blocked:
            if record.state != SessionState.BLOCKED:
                record.state = SessionState.BLOCKED
                self.stats["blocked"] += 1
                self.pipelined.set_session_rate(imsi, 1e-6)
                record.installed_rate_mbps = 0.0
            if decision.needs_quota:
                self._spawn_quota_refill(record)
            return
        if record.state == SessionState.BLOCKED:
            record.state = SessionState.ACTIVE
        if abs(decision.allowed_mbps - record.installed_rate_mbps) > 1e-9:
            self.pipelined.set_session_rate(imsi, decision.allowed_mbps)
            record.installed_rate_mbps = decision.allowed_mbps
        if decision.needs_quota:
            self._spawn_quota_refill(record)

    def _spawn_quota_refill(self, record: SessionRecord) -> None:
        if self.ocs_client is None:
            return
        imsi = record.imsi
        enforcement = record.enforcement
        if getattr(enforcement, "_refill_in_flight", False):
            return
        enforcement._refill_in_flight = True

        def refill(sim):
            try:
                # Close out the current grant (final report): its unused
                # remainder is released, the new grant takes over.
                if enforcement.quota_grant_id is not None:
                    try:
                        yield self.ocs_client.report_usage(
                            enforcement.quota_grant_id,
                            min(record.cumulative_quota_used,
                                enforcement._last_grant_size), final=True)
                    except Exception:  # noqa: BLE001 - OCS unreachable
                        pass
                grant = yield self.ocs_client.request_quota(
                    imsi, self.context.node)
            except Exception:  # noqa: BLE001 - OCS unreachable
                grant = None
            enforcement._refill_in_flight = False
            if grant is None:
                self.stats["quota_denials"] += 1
                return
            self.stats["quota_refills"] += 1
            record.cumulative_quota_used = 0
            enforcement.add_quota(grant["grant_id"], grant["granted_bytes"])
            current = self._sessions.get(imsi)
            if current is record and record.state == SessionState.BLOCKED:
                record.state = SessionState.ACTIVE
                decision = enforcement.decide(self.context.sim.now)
                self.pipelined.set_session_rate(imsi, decision.allowed_mbps)
                record.installed_rate_mbps = decision.allowed_mbps

        self.context.sim.spawn(refill(self.context.sim),
                               name=f"quota-refill:{imsi}")

    def _report_final_usage(self, record: SessionRecord,
                            grant_id: int) -> None:
        """Close a terminated session's grant.  Nobody awaits the reply (an
        unreachable OCS loses the report); the usage is read here, when
        the deferred report goes out."""
        used = min(record.cumulative_quota_used,
                   record.enforcement._last_grant_size)
        self.ocs_client.report_usage(grant_id, used, True)

    def set_connected(self, imsi: str, connected: bool) -> None:
        """Track the UE's ECM state; the session stays anchored when idle."""
        record = self._sessions.get(imsi)
        if record is not None:
            record.connected = connected

    # -- introspection -----------------------------------------------------------------------

    # -- aggregated fleet sessions (workloads.fleet) ---------------------------------

    def bulk_create_fleet(self, n: int) -> None:
        """Account ``n`` cohort-aggregated sessions created this tick."""
        if n < 0:
            raise ValueError(f"bulk_create_fleet needs n >= 0, got {n}")
        self.fleet_sessions += n
        self.stats["created"] += n

    def bulk_terminate_fleet(self, n: int) -> int:
        """End up to ``n`` aggregated sessions; returns how many existed."""
        if n < 0:
            raise ValueError(f"bulk_terminate_fleet needs n >= 0, got {n}")
        ended = min(n, self.fleet_sessions)
        self.fleet_sessions -= ended
        self.stats["terminated"] += ended
        return ended

    def session(self, imsi: str) -> Optional[SessionRecord]:
        return self._sessions.get(imsi)

    def active_sessions(self) -> List[SessionRecord]:
        return list(self._sessions.values())

    def session_count(self) -> int:
        """Active sessions: per-IMSI records plus aggregated fleet sessions."""
        return len(self._sessions) + self.fleet_sessions

    def _require(self, imsi: str) -> SessionRecord:
        record = self._sessions.get(imsi)
        if record is None:
            raise SessionError(f"no session for {imsi}")
        return record

    # -- checkpoint / restore (crash-recovery, §3.3) ----------------------------------------

    def checkpoint(self) -> List[Dict[str, Any]]:
        """Serializable snapshot of all session runtime state."""
        tracer = self.context.sim.tracer
        span = NOOP_SPAN if tracer is None else tracer.begin(
            "sessiond.checkpoint", component="sessiond",
            node=self.context.node)
        snapshot = []
        for record in self._sessions.values():
            enforcement = record.enforcement
            snapshot.append({
                "session_id": record.session_id,
                "imsi": record.imsi,
                "ue_ip": record.ue_ip,
                "policy_id": record.policy_id,
                "agw_teid": record.agw_teid,
                "enb_teid": record.enb_teid,
                "enb_node": record.enb_node,
                "state": record.state,
                "start_time": record.start_time,
                "bytes_dl": record.bytes_dl,
                "bytes_ul": record.bytes_ul,
                "installed_rate_mbps": record.installed_rate_mbps,
                "home_routed": record.home_routed,
                "connected": record.connected,
                "cumulative_quota_used": record.cumulative_quota_used,
                "total_bytes": enforcement.total_bytes,
                "interval_bytes": enforcement.interval_bytes,
                "interval_start": enforcement.interval_start,
                "quota_remaining": enforcement.quota_remaining,
                "quota_grant_id": enforcement.quota_grant_id,
                "last_grant_size": enforcement._last_grant_size,
            })
        span.set_tag("sessions", len(snapshot)).end()
        return snapshot

    def restore(self, snapshot: List[Dict[str, Any]]) -> int:
        """Rebuild sessions (and data-plane state) from a checkpoint.

        Correctness: restored TEIDs and session ids re-seed their
        allocators, so the first post-restore ``create_session`` cannot
        collide with a restored session; the ECM ``connected`` flag rides
        through, so idle UEs stay idle.  Throughput: the whole data plane
        is programmed as one atomic :meth:`Pipelined.batch` bundle and
        mobilityd is rebuilt with a single bulk call after the loop.
        """
        restored = 0
        tracer = self.context.sim.tracer
        span = NOOP_SPAN if tracer is None else tracer.begin(
            "sessiond.restore", component="sessiond", node=self.context.node)
        with span.active(), self.pipelined.batch():
            for entry in snapshot:
                imsi = entry["imsi"]
                policy = self.policydb.get(entry["policy_id"])
                enforcement = EnforcementState(
                    policy, session_start=entry["interval_start"])
                enforcement.total_bytes = entry["total_bytes"]
                enforcement.interval_bytes = entry["interval_bytes"]
                enforcement.quota_remaining = entry["quota_remaining"]
                enforcement.quota_grant_id = entry["quota_grant_id"]
                enforcement._last_grant_size = entry["last_grant_size"]
                record = SessionRecord(
                    session_id=entry["session_id"], imsi=imsi,
                    ue_ip=entry["ue_ip"], policy_id=entry["policy_id"],
                    agw_teid=entry["agw_teid"], enb_teid=entry["enb_teid"],
                    enb_node=entry["enb_node"], state=entry["state"],
                    start_time=entry["start_time"], bytes_dl=entry["bytes_dl"],
                    bytes_ul=entry["bytes_ul"],
                    installed_rate_mbps=entry["installed_rate_mbps"],
                    home_routed=entry.get("home_routed", False),
                    connected=entry.get("connected", True),
                    cumulative_quota_used=entry.get(
                        "cumulative_quota_used", 0),
                    enforcement=enforcement)
                self._sessions[imsi] = record
                self._teids.reserve(record.agw_teid)
                self._seed_session_id(record.session_id)
                egress_port = GTPA_PORT if record.home_routed else SGI_PORT
                self.pipelined.install_session(imsi, record.ue_ip,
                                               record.agw_teid,
                                               record.installed_rate_mbps,
                                               egress_port=egress_port)
                if record.enb_teid is not None and record.enb_node is not None:
                    self.pipelined.set_enb_tunnel(imsi, record.enb_teid,
                                                  record.enb_node)
                restored += 1
        self.mobilityd.restore({r.imsi: r.ue_ip
                                for r in self._sessions.values()})
        span.set_tag("sessions", restored).end()
        return restored
