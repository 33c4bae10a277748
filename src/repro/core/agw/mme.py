"""Access control and management: the generic "MME" of the AGW.

Per Table 1 this service is the MME (LTE), AMF (5G), and RADIUS AAA (WiFi)
collapsed into one technology-agnostic implementation.  RAN-specific
frontends (S1AP, NGAP, RADIUS) terminate their protocols and drive the
generic procedures here through the :class:`RanFrontend` interface - the
paper's central architectural move (§3.1).

CPU accounting: attach processing is the most computationally intensive
control-plane procedure (§4.2 - dominated by authentication crypto and
per-session state setup), so each stage submits work to the AGW CPU model's
control-plane class.  This is what produces the Fig. 6 attach-rate knee.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ...lte import nas
from ...net.rpc import RpcError
from ...sim.kernel import Event
from ..federation.feg import FEG_SERVICE
from ..policy.rules import PolicyRule
from .context import AgwContext, CPU_CLASS_CONTROL
from .directoryd import Directoryd
from .sessiond import SessionError, Sessiond
from .subscriberdb import SubscriberDb

# How the total attach CPU cost is split across procedure stages.
STAGE_ATTACH_REQUEST = 0.5   # subscriber lookup + auth vector generation
STAGE_AUTH_RESPONSE = 0.2    # RES verification + security mode
STAGE_SESSION_SETUP = 0.3    # session creation + data-plane programming


class RanFrontend:
    """What the generic MME needs from a radio-specific frontend."""

    name = "generic"

    def send_downlink_nas(self, ue_ref: Any, message: Any,
                          mme_ue_id: Optional[int] = None) -> None:
        raise NotImplementedError

    def setup_context(self, ue_ref: Any, mme_ue_id: int, session: Any,
                      attach_accept: Any) -> None:
        """Establish the RAN-side bearer and deliver the piggybacked NAS."""
        raise NotImplementedError

    def release_context(self, ue_ref: Any, mme_ue_id: int, cause: str) -> None:
        raise NotImplementedError

    def location_of(self, ue_ref: Any) -> str:
        """The RAN element (eNodeB/gNB/AP id) behind a UE reference."""
        return str(ue_ref)


class FederationClient:
    """AGW-side client for the Federation Gateway (§3.6).

    Lets the generic access-management functions authenticate and fetch
    policy for subscribers that live in a partner MNO's core instead of the
    Magma orchestrator.
    """

    def __init__(self, channel, deadline: float = 10.0):
        self.channel = channel
        self.deadline = deadline

    def get_auth_vector(self, imsi: str) -> Event:
        return self.channel.call(FEG_SERVICE, "get_auth_vector",
                                 {"imsi": imsi}, deadline=self.deadline)

    def get_policy(self, imsi: str) -> Event:
        return self.channel.call(FEG_SERVICE, "get_policy",
                                 {"imsi": imsi}, deadline=self.deadline)


class UeContextState:
    WAIT_AUTH = "wait-auth"
    WAIT_SMC = "wait-smc"
    WAIT_COMPLETE = "wait-complete"
    REGISTERED = "registered"


@dataclass
class MmeUeContext:
    mme_ue_id: int
    imsi: str
    frontend: RanFrontend
    ue_ref: Any
    state: str = UeContextState.WAIT_AUTH
    xres: bytes = b""
    kasme: bytes = b""
    attach_started: float = 0.0
    federated: bool = False
    resync_done: bool = False


class AccessManagement:
    """The generic attach/detach/session procedures."""

    def __init__(self, context: AgwContext, subscriberdb: SubscriberDb,
                 sessiond: Sessiond, directoryd: Optional[Directoryd] = None,
                 federation: Optional[FederationClient] = None):
        self.context = context
        self.subscriberdb = subscriberdb
        self.sessiond = sessiond
        self.directoryd = directoryd
        self.federation = federation
        self._ue_ids = itertools.count(1)
        self._by_mme_ue_id: Dict[int, MmeUeContext] = {}
        self._by_imsi: Dict[str, MmeUeContext] = {}
        # Fractional attach-capacity carry for the aggregated fleet path.
        self._fleet_attach_credit = 0.0
        self.stats = {"attach_requests": 0, "attach_accepted": 0,
                      "attach_rejected": 0, "auth_failures": 0,
                      "detaches": 0, "unknown_subscriber": 0,
                      "overload_drops": 0}

    # -- entry points (called by RAN frontends) ---------------------------------------

    def handle_initial_ue(self, frontend: RanFrontend, ue_ref: Any,
                          message: Any) -> None:
        if isinstance(message, nas.AttachRequest):
            self.stats["attach_requests"] += 1
            if self._overloaded():
                self.stats["overload_drops"] += 1
                self.stats["attach_rejected"] += 1
                frontend.send_downlink_nas(
                    ue_ref, nas.AttachReject(imsi=message.imsi,
                                             cause="congestion"))
                return
            span = self.context.tracer.child(
                "mme.attach_stage1", component="mme", node=self.context.node)
            proc = self.context.sim.spawn(
                self._attach_stage1(frontend, ue_ref, message),
                name=f"mme-attach:{message.imsi}", ctx=span.context)
            if span.recording:
                span.end_on(proc)
        elif isinstance(message, nas.ServiceRequest):
            self._handle_service_request(frontend, ue_ref, message)
        # Other initial messages ignored.

    def handle_uplink_nas(self, frontend: RanFrontend, ue_ref: Any,
                          mme_ue_id: int, message: Any) -> None:
        ue_context = self._by_mme_ue_id.get(mme_ue_id)
        if ue_context is None:
            # NAS from a context this MME doesn't know - e.g. after a crash
            # wiped the (ephemeral, recoverable) NAS state, §3.4.  A detach
            # still cleans up the restored session (implicit detach); other
            # messages are dropped and the UE's timers force a re-attach.
            if isinstance(message, nas.DetachRequest):
                self.stats["detaches"] += 1
                self.sessiond.terminate_session(message.imsi,
                                                reason="implicit-detach")
                if self.directoryd is not None:
                    self.directoryd.remove(message.imsi)
            return
        if isinstance(message, nas.AuthenticationResponse):
            span = self.context.tracer.child(
                "mme.attach_stage2", component="mme", node=self.context.node)
            proc = self.context.sim.spawn(
                self._attach_stage2(ue_context, message),
                name=f"mme-auth:{ue_context.imsi}", ctx=span.context)
            if span.recording:
                span.end_on(proc)
        elif isinstance(message, nas.SecurityModeComplete):
            span = self.context.tracer.child(
                "mme.attach_stage3", component="mme", node=self.context.node)
            proc = self.context.sim.spawn(
                self._attach_stage3(ue_context),
                name=f"mme-session:{ue_context.imsi}", ctx=span.context)
            if span.recording:
                span.end_on(proc)
        elif isinstance(message, nas.AttachComplete):
            self._on_attach_complete(ue_context)
        elif isinstance(message, nas.DetachRequest):
            self._on_detach(ue_context, message)
        elif isinstance(message, nas.AuthenticationFailureMsg):
            if (message.cause.startswith("sync_failure:")
                    and not ue_context.resync_done
                    and not ue_context.federated):
                ue_context.resync_done = True
                usim_sqn = int(message.cause.split(":", 1)[1])
                self.context.sim.spawn(
                    self._resync_authentication(ue_context, usim_sqn),
                    name=f"mme-resync:{ue_context.imsi}")
            else:
                self.stats["auth_failures"] += 1
                self._drop_context(ue_context)

    def _overloaded(self) -> bool:
        """MME congestion control: too much control-plane work queued."""
        return (self.context.cpu.queue_depth(CPU_CLASS_CONTROL) >=
                self.context.config.mme_max_pending)

    # -- aggregated fleet entry point (workloads.fleet) --------------------------------

    def bulk_attach(self, n: int, dt: float) -> int:
        """Admit up to ``n`` cohort-aggregated attaches spanning ``dt`` s.

        The fleet abstraction batches an entire tick's attach arrivals into
        one call instead of ``n`` per-UE NAS dialogues.  Admission follows
        the same calibrated capacity the coroutine path saturates at: the
        hardware attach rate (DESIGN.md §5) accrues as a credit bank
        (capped at one tick, so an idle MME cannot absorb an unbounded
        burst), and the admitted work is charged to the control-plane CPU
        class as fluid demand so utilization telemetry sees the load.
        Rejects count as congestion drops, exactly as the per-UE overload
        path accounts them.  Returns the number admitted.
        """
        if n < 0:
            raise ValueError(f"bulk_attach needs n >= 0, got {n}")
        if dt <= 0:
            raise ValueError(f"bulk_attach needs dt > 0, got {dt}")
        self.stats["attach_requests"] += n
        hardware = self.context.config.hardware
        per_tick = hardware.attach_capacity_per_sec() * dt
        credit = min(self._fleet_attach_credit + per_tick, per_tick)
        accepted = min(n, int(credit))
        self._fleet_attach_credit = credit - accepted
        rejected = n - accepted
        if accepted:
            self.stats["attach_accepted"] += accepted
            self.sessiond.bulk_create_fleet(accepted)
        if rejected:
            self.stats["attach_rejected"] += rejected
            self.stats["overload_drops"] += rejected
        # Fluid control-plane demand for this tick: admitted attach work
        # spread over the tick.  Refreshed (or zeroed) every tick by the
        # fleet, so it never outlives the workload.
        self.context.cpu.set_fluid_demand(
            CPU_CLASS_CONTROL, "fleet-attach",
            accepted * hardware.attach_cpu_cost / dt)
        return accepted

    def bulk_detach(self, n: int) -> int:
        """Aggregated fleet detaches; returns how many sessions ended."""
        if n < 0:
            raise ValueError(f"bulk_detach needs n >= 0, got {n}")
        ended = self.sessiond.bulk_terminate_fleet(n)
        self.stats["detaches"] += ended
        return ended

    # -- attach pipeline ----------------------------------------------------------------

    def _attach_stage1(self, frontend: RanFrontend, ue_ref: Any,
                       message: nas.AttachRequest):
        """Subscriber lookup + authentication challenge."""
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_ATTACH_REQUEST)
        imsi = message.imsi
        stale = self._by_imsi.pop(imsi, None)
        if stale is not None:
            self._by_mme_ue_id.pop(stale.mme_ue_id, None)
        profile = self.subscriberdb.get(imsi)
        federated = False
        if profile is not None and profile.k is not None:
            rand = self.context.rng.stream(
                f"auth.rand.{self.context.node}").randbytes(16)
            vector = self.subscriberdb.generate_auth_vector(imsi, rand)
            xres, kasme, autn = vector.xres, vector.kasme, vector.autn
        else:
            # Not a local subscriber: in a federated deployment, fetch an
            # auth vector from the partner MNO through the FeG (§3.6).
            vector_data = None
            if self.federation is not None:
                try:
                    vector_data = yield self.federation.get_auth_vector(imsi)
                except RpcError:
                    vector_data = None
            if vector_data is None:
                self.stats["unknown_subscriber"] += 1
                self.stats["attach_rejected"] += 1
                frontend.send_downlink_nas(
                    ue_ref, nas.AttachReject(imsi=imsi,
                                             cause="unknown subscriber"))
                return
            federated = True
            xres, kasme = vector_data["xres"], vector_data["kasme"]
            rand, autn = vector_data["rand"], vector_data["autn"]
        ue_context = MmeUeContext(
            mme_ue_id=next(self._ue_ids), imsi=imsi, frontend=frontend,
            ue_ref=ue_ref, xres=xres, kasme=kasme,
            attach_started=self.context.sim.now, federated=federated)
        self._by_mme_ue_id[ue_context.mme_ue_id] = ue_context
        self._by_imsi[imsi] = ue_context
        frontend.send_downlink_nas(
            ue_ref, nas.AuthenticationRequest(imsi=imsi, rand=rand,
                                              autn=autn),
            mme_ue_id=ue_context.mme_ue_id)

    def _resync_authentication(self, ue_context: MmeUeContext,
                               usim_sqn: int):
        """SQN resynchronization: adopt the USIM's SQN, re-challenge."""
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_AUTH_RESPONSE)
        self.subscriberdb.resync_sqn(ue_context.imsi, usim_sqn)
        rand = self.context.rng.stream(
            f"auth.rand.{self.context.node}").randbytes(16)
        try:
            vector = self.subscriberdb.generate_auth_vector(
                ue_context.imsi, rand)
        except KeyError:
            self.stats["auth_failures"] += 1
            self._drop_context(ue_context)
            return
        ue_context.xres = vector.xres
        ue_context.kasme = vector.kasme
        ue_context.frontend.send_downlink_nas(
            ue_context.ue_ref,
            nas.AuthenticationRequest(imsi=ue_context.imsi, rand=rand,
                                      autn=vector.autn),
            mme_ue_id=ue_context.mme_ue_id)

    def _attach_stage2(self, ue_context: MmeUeContext,
                       message: nas.AuthenticationResponse):
        """RES verification + security mode command."""
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_AUTH_RESPONSE)
        if message.res != ue_context.xres:
            self.stats["auth_failures"] += 1
            self.stats["attach_rejected"] += 1
            ue_context.frontend.send_downlink_nas(
                ue_context.ue_ref,
                nas.AuthenticationReject(imsi=ue_context.imsi),
                mme_ue_id=ue_context.mme_ue_id)
            self._drop_context(ue_context)
            return
        ue_context.state = UeContextState.WAIT_SMC
        ue_context.frontend.send_downlink_nas(
            ue_context.ue_ref, nas.SecurityModeCommand(imsi=ue_context.imsi),
            mme_ue_id=ue_context.mme_ue_id)

    def _attach_stage3(self, ue_context: MmeUeContext):
        """Session creation, data-plane programming, attach accept."""
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_SESSION_SETUP)
        if ue_context.federated and \
                self.subscriberdb.get(ue_context.imsi) is None:
            ok = yield from self._cache_federated_profile(ue_context)
            if not ok:
                self.stats["attach_rejected"] += 1
                ue_context.frontend.send_downlink_nas(
                    ue_context.ue_ref,
                    nas.AttachReject(imsi=ue_context.imsi,
                                     cause="federated policy unavailable"),
                    mme_ue_id=ue_context.mme_ue_id)
                self._drop_context(ue_context)
                return
        try:
            session = yield from self.sessiond.create_session(ue_context.imsi)
        except SessionError as exc:
            self.stats["attach_rejected"] += 1
            ue_context.frontend.send_downlink_nas(
                ue_context.ue_ref,
                nas.AttachReject(imsi=ue_context.imsi, cause=str(exc)),
                mme_ue_id=ue_context.mme_ue_id)
            self._drop_context(ue_context)
            return
        ue_context.state = UeContextState.WAIT_COMPLETE
        accept = nas.AttachAccept(
            imsi=ue_context.imsi, ue_ip=session.ue_ip,
            guti=f"{self.context.node}-guti-{ue_context.mme_ue_id}")
        ue_context.frontend.setup_context(ue_context.ue_ref,
                                          ue_context.mme_ue_id, session,
                                          accept)

    def _cache_federated_profile(self, ue_context: MmeUeContext):
        """Fetch the roaming subscriber's policy from the MNO (via the FeG)
        and cache a federated profile locally - the paper's local-breakout
        flow: "obtain the policy ... from the federated network, then
        enforce that policy in the AGW" (§3.6)."""
        imsi = ue_context.imsi
        try:
            response = yield self.federation.get_policy(imsi)
        except RpcError:
            response = None
        if response is None:
            return False
        policy = response["policy"]
        if isinstance(policy, PolicyRule):
            # Runtime roaming-cache fill (§3.6 local breakout), not config
            # sync: the MNO, not our orchestrator, owns this policy.
            self.sessiond.policydb.upsert(policy)  # reprolint: disable=desired-state-sync
            policy_id = policy.policy_id
        else:
            policy_id = "default"
        from .subscriberdb import SubscriberProfile
        self.subscriberdb.upsert(SubscriberProfile(  # reprolint: disable=desired-state-sync
            imsi=imsi, policy_id=policy_id, federated=True))
        return True

    def _on_attach_complete(self, ue_context: MmeUeContext) -> None:
        if ue_context.state != UeContextState.WAIT_COMPLETE:
            return
        ue_context.state = UeContextState.REGISTERED
        self.stats["attach_accepted"] += 1
        if self.directoryd is not None:
            self.directoryd.update_location(
                ue_context.imsi, ue_context.frontend.name,
                ue_context.frontend.location_of(ue_context.ue_ref))
        self.context.monitor.count("mme.attach_accepted")
        # Attach latency with exemplar: the ambient span context (when
        # tracing is on) rides along as the sample's trace id, so the
        # orchestrator's p99 can be resolved back to this exact attach.
        sim = self.context.sim
        now = sim.now
        ctx = sim.ctx
        self.context.monitor.bounded_series(
            f"attach.latency.{self.context.node}", 4096).record(
            now, now - ue_context.attach_started,
            trace_id=ctx.trace_id if ctx is not None else None)

    def _on_detach(self, ue_context: MmeUeContext,
                   message: nas.DetachRequest) -> None:
        self.stats["detaches"] += 1
        with self.context.tracer.child("mme.detach", component="mme",
                                       node=self.context.node):
            self.sessiond.terminate_session(ue_context.imsi, reason="detach")
            if not message.switch_off:
                ue_context.frontend.send_downlink_nas(
                    ue_context.ue_ref, nas.DetachAccept(imsi=ue_context.imsi),
                    mme_ue_id=ue_context.mme_ue_id)
            ue_context.frontend.release_context(ue_context.ue_ref,
                                                ue_context.mme_ue_id,
                                                "detach")
            self._drop_context(ue_context)
            if self.directoryd is not None:
                self.directoryd.remove(ue_context.imsi)

    def _handle_service_request(self, frontend: RanFrontend, ue_ref: Any,
                                message: nas.ServiceRequest) -> None:
        imsi = message.imsi
        session = self.sessiond.session(imsi)
        ue_context = self._by_imsi.get(imsi)
        if session is None or ue_context is None:
            frontend.send_downlink_nas(
                ue_ref, nas.ServiceReject(imsi=imsi, cause="no session"))
            return
        # Idle -> connected: re-point the context at the (possibly new)
        # radio-side reference and re-establish the bearer.
        ue_context.ue_ref = ue_ref
        ue_context.frontend = frontend
        self.sessiond.set_connected(imsi, True)

        def proc(sim):
            cost = self.context.config.hardware.nas_message_cpu_cost
            yield self.context.cpu.submit(CPU_CLASS_CONTROL, max(cost, 1e-4))
            frontend.setup_context(ue_ref, ue_context.mme_ue_id, session,
                                   nas.ServiceAccept(imsi=imsi))

        span = self.context.tracer.child(
            "mme.service_request", component="mme", node=self.context.node)
        sr_proc = self.context.sim.spawn(proc(self.context.sim),
                                         name=f"service-req:{imsi}",
                                         ctx=span.context)
        if span.recording:
            span.end_on(sr_proc)

    def handle_ue_idle(self, imsi: str) -> None:
        """eNodeB reported the UE inactive: ECM-IDLE.  The session stays;
        only the radio side is gone until paging/service-request."""
        if self.sessiond.session(imsi) is not None:
            self.sessiond.set_connected(imsi, False)
            self.context.monitor.count("mme.idle_transitions")

    def page(self, imsi: str) -> bool:
        """Page an idle UE (downlink data pending).  Returns whether a
        page was sent toward the UE's last known location."""
        session = self.sessiond.session(imsi)
        if session is None:
            return False
        if session.connected:
            return True  # already reachable
        ue_context = self._by_imsi.get(imsi)
        if ue_context is None or self.directoryd is None:
            return False
        record = self.directoryd.lookup(imsi)
        if record is None:
            return False
        pager = getattr(ue_context.frontend, "page", None)
        if pager is None:
            return False
        span = self.context.tracer.begin("paging", component="mme",
                                         node=self.context.node,
                                         tags={"imsi": imsi})
        with span.active():
            pager(record.location, imsi)
        span.end()
        return True

    # -- generic procedure helpers (used by the 5G NGAP frontend) ----------------------
    # These expose the same three attach stages as reusable building blocks,
    # so a frontend with its own protocol state machine (5G registration)
    # still runs the one generic implementation of lookup/auth/session.

    def begin_authentication(self, imsi: str):
        """Generator: stage-1 work - subscriber lookup + vector generation.

        Returns an AuthVector, or None for unknown subscribers.
        """
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_ATTACH_REQUEST)
        self.stats["attach_requests"] += 1
        profile = self.subscriberdb.get(imsi)
        if profile is None or profile.k is None:
            self.stats["unknown_subscriber"] += 1
            self.stats["attach_rejected"] += 1
            return None
        rand = self.context.rng.stream(f"auth.rand.{self.context.node}") \
            .randbytes(16)
        return self.subscriberdb.generate_auth_vector(imsi, rand)

    def verify_authentication(self, expected_xres: bytes, res: bytes):
        """Generator: stage-2 work - RES verification."""
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_AUTH_RESPONSE)
        ok = res == expected_xres
        if not ok:
            self.stats["auth_failures"] += 1
            self.stats["attach_rejected"] += 1
        return ok

    def establish_session(self, imsi: str):
        """Generator: stage-3 work - session creation (raises SessionError)."""
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_SESSION_SETUP)
        try:
            session = yield from self.sessiond.create_session(imsi)
        except SessionError:
            self.stats["attach_rejected"] += 1
            raise
        self.stats["attach_accepted"] += 1
        return session

    # -- generic (non-NAS) authentication, used by the WiFi frontend -------------------

    def authenticate_eap(self, imsi: str, nonce: bytes, proof: bytes):
        """Generator: EAP challenge/response verification + session.

        The generic counterpart of EPS-AKA for WiFi subscribers: the proof
        must be HMAC(wifi_secret, nonce).  Raises SessionError on failure.
        """
        from ...wifi import eap
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL, cost)
        profile = self.subscriberdb.get(imsi)
        if profile is None or profile.wifi_secret is None:
            self.stats["unknown_subscriber"] += 1
            raise SessionError(f"unknown WiFi subscriber {imsi}")
        if not eap.verify_proof(profile.wifi_secret, nonce, proof):
            self.stats["auth_failures"] += 1
            raise SessionError("EAP authentication failure")
        session = yield from self.sessiond.create_session(imsi)
        self.stats["attach_accepted"] += 1
        return session

    # -- context management ----------------------------------------------------------------

    def update_ue_ref(self, mme_ue_id: int, new_ue_ref: Any) -> bool:
        """Re-point a registered UE context at a new RAN element (intra-AGW
        handover).  Returns False for unknown/unregistered contexts."""
        ue_context = self._by_mme_ue_id.get(mme_ue_id)
        if ue_context is None or ue_context.state != UeContextState.REGISTERED:
            return False
        ue_context.ue_ref = new_ue_ref
        return True

    def _drop_context(self, ue_context: MmeUeContext) -> None:
        self._by_mme_ue_id.pop(ue_context.mme_ue_id, None)
        existing = self._by_imsi.get(ue_context.imsi)
        if existing is ue_context:
            self._by_imsi.pop(ue_context.imsi, None)

    def context_for(self, imsi: str) -> Optional[MmeUeContext]:
        return self._by_imsi.get(imsi)
