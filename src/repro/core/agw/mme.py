"""Access management: the one implementation of every access procedure.

Per Table 1 this service is the MME (LTE), AMF (5G) and RADIUS AAA (WiFi)
collapsed into one technology-agnostic implementation (§3.1).  It holds the
AGW's only UE-context table and runs the procedures every RAT shares:

- **register** - subscriber lookup (or the FeG for a roamer, §3.6) ->
  challenge -> verify -> secure, ending when the UE confirms admission;
- **establish session** and **release session**;
- **deregister** - release the session, drop the context, forget the
  location in directoryd.

The S1AP, NGAP and RADIUS frontends are translators: each maps its
protocol's uplink messages onto these calls, and the outcomes (challenge,
secure, accept, reject, release) back onto its own downlink messages
through :class:`RanFrontend`.  Overload shedding, the attach counters, the
``attach.latency.<node>`` series and its exemplars, the ``mme.*`` spans,
FeG lookup and the crash wipe therefore cover LTE, 5G and WiFi alike.

CPU accounting: registration is the most computationally intensive
control-plane procedure (§4.2 - dominated by authentication crypto and
per-session state setup), so each stage submits work to the AGW CPU model's
control-plane class.  This is what produces the Fig. 6 attach-rate knee.
AKA (LTE, 5G) pays the three stage shares as three submits.  EAP (WiFi)
issues its challenge for free and pays all three in one submit when the
answer arrives, because one Access-Request carries lookup, proof and
session.
"""

from __future__ import annotations

import hmac
import itertools
from typing import Any, Dict, Optional

from ...net.rpc import RpcError
from ...obs.tracing import NOOP_SPAN
from ...record import record
from ...sim.kernel import Event
from ..federation.feg import FEG_SERVICE
from ..policy.rules import PolicyRule
from .context import AgwContext, CPU_CLASS_CONTROL
from .directoryd import Directoryd
from .sessiond import SessionError, Sessiond
from .subscriberdb import SubscriberDb, SubscriberProfile

# How the total attach CPU cost is split across procedure stages.
STAGE_ATTACH_REQUEST = 0.5   # subscriber lookup + auth vector generation
STAGE_AUTH_RESPONSE = 0.2    # RES verification + security mode
STAGE_SESSION_SETUP = 0.3    # session creation + data-plane programming

#: Reject cause of a wrong answer to the challenge.
AUTH_FAILURE = "authentication failure"

#: Deadline of the AGW's calls to the Federation Gateway.
FEG_DEADLINE = 10.0


class RanFrontend:
    """What access management needs from a radio-specific frontend: one
    method per procedure outcome, each mapped onto the frontend's own
    downlink message.  A method returns that message when its protocol
    answers in the reply to the uplink request (RADIUS), else None."""

    name = "generic"

    def challenge(self, ue: "AccessContext", rand: bytes, autn: bytes) -> Any:
        raise NotImplementedError

    def secure(self, ue: "AccessContext") -> Any:
        """The UE answered the challenge correctly: start security mode."""
        raise NotImplementedError

    def accept(self, ue: "AccessContext", session: Any) -> Any:
        """Admit the UE to ``session``; None for a registration without one."""
        raise NotImplementedError

    def reject(self, ue: "AccessContext", cause: str) -> Any:
        raise NotImplementedError

    def release(self, ue: "AccessContext", cause: str, answer: Any) -> None:
        """Deregistered: send ``answer`` (None: the UE switched off) and
        free the RAN side."""
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

    def __init__(self, channel):
        self.channel = channel

    def get_auth_vector(self, imsi: str) -> Event:
        return self.channel.call(FEG_SERVICE, "get_auth_vector",
                                 {"imsi": imsi}, deadline=FEG_DEADLINE)

    def get_policy(self, imsi: str) -> Event:
        return self.channel.call(FEG_SERVICE, "get_policy",
                                 {"imsi": imsi}, deadline=FEG_DEADLINE)


class UeContextState:
    WAIT_AUTH = "wait-auth"
    WAIT_SMC = "wait-smc"
    WAIT_COMPLETE = "wait-complete"
    REGISTERED = "registered"


@record
class AccessContext:
    """One UE's registration, whichever RAT it arrived on.  ``ue_id`` 0
    marks a UE refused before it got a context."""

    ue_id: int
    imsi: str
    frontend: RanFrontend
    ue_ref: Any
    state: str = UeContextState.WAIT_AUTH
    challenge: bytes = b""
    xres: bytes = b""        # the answer the challenge expects
    attach_started: float = 0.0
    federated: bool = False
    resync_done: bool = False


class AccessManagement:
    """The registration, session and deregistration procedures."""

    def __init__(self, context: AgwContext, subscriberdb: SubscriberDb,
                 sessiond: Sessiond, directoryd: Optional[Directoryd] = None,
                 federation: Optional[FederationClient] = None):
        self.context = context
        self.subscriberdb = subscriberdb
        self.sessiond = sessiond
        self.directoryd = directoryd
        self.federation = federation
        self._ue_ids = itertools.count(1)
        #: The UE-context table, by ``ue_id``; ``_by_imsi`` indexes it.
        self.contexts: Dict[int, AccessContext] = {}
        self._by_imsi: Dict[str, AccessContext] = {}
        # Fractional attach-capacity carry for the aggregated fleet path.
        self._fleet_attach_credit = 0.0
        self.stats = {"attach_requests": 0, "attach_accepted": 0,
                      "attach_rejected": 0, "auth_failures": 0,
                      "detaches": 0, "unknown_subscriber": 0,
                      "overload_drops": 0, "idle_transitions": 0}
        #: Accepted attaches' latencies with their exemplars; magmad ships
        #: the rows recorded since its previous check-in.
        self.attach_latency = context.monitor.bounded_series(
            f"attach.latency.{context.node}", 4096)

    # -- register ---------------------------------------------------------------------

    def register(self, frontend: RanFrontend, ue_ref: Any, imsi: str) -> None:
        """AKA registration start (AttachRequest, RegistrationRequest):
        count it, shed it under overload, else look the subscriber up and
        challenge it (stage 1)."""
        self.stats["attach_requests"] += 1
        if self._overloaded():
            self._shed(AccessContext(0, imsi, frontend, ue_ref))
            return
        self._spawn("mme.attach_stage1", self._challenge(frontend, ue_ref, imsi),
                    f"mme-attach:{imsi}")

    def register_eap(self, frontend: RanFrontend, ue_ref: Any, imsi: str,
                     nonce: bytes) -> Any:
        """EAP registration start (EAP-start): the authenticator's nonce is
        the challenge, so nothing is looked up or charged until
        :meth:`authorize` gets the answer."""
        self.stats["attach_requests"] += 1
        self._supersede(imsi)
        ue = self._open(frontend, ue_ref, imsi, challenge=nonce)
        return frontend.challenge(ue, nonce, b"")

    def authenticate(self, ue: AccessContext, res: bytes) -> None:
        """The UE's answer to an AKA challenge (stage 2)."""
        self._spawn("mme.attach_stage2", self._verify_aka(ue, res),
                    f"mme-auth:{ue.imsi}")

    def authorize(self, frontend: RanFrontend, ue_ref: Any, imsi: str,
                  challenge: bytes, response: bytes) -> Any:
        """The answer to an EAP challenge (Access-Request): lookup, proof,
        session and admission as one stage.  Returns the stage for the
        frontend's RPC server to run, its value the frontend's reply, or
        the reply itself when shed."""
        ue = self._by_imsi.get(imsi)
        if ue is None or ue.state != UeContextState.WAIT_AUTH \
                or ue.challenge != challenge:
            ue = None  # not a challenge this AGW has outstanding
        elif self._overloaded():
            return self._shed(ue)
        return self._verify_eap(frontend, ue_ref, imsi, ue, response)

    def resync(self, ue: AccessContext, usim_sqn: int) -> None:
        """SQN resynchronization: adopt the USIM's SQN and re-challenge,
        once, for a local subscriber."""
        if ue.resync_done or ue.federated:
            self.abort(ue)
            return
        ue.resync_done = True
        self.context.sim.spawn(self._resync(ue, usim_sqn),
                               name=f"mme-resync:{ue.imsi}")

    def abort(self, ue: AccessContext) -> None:
        """The UE refused the network's challenge."""
        self.stats["auth_failures"] += 1
        self.stats["attach_rejected"] += 1
        self._drop(ue)

    def accept(self, ue: AccessContext) -> Any:
        """Security is up on a registration that carries no session (5G):
        accept it and wait for the UE to confirm."""
        ue.state = UeContextState.WAIT_COMPLETE
        return ue.frontend.accept(ue, None)

    def complete(self, ue: AccessContext) -> None:
        """The UE is admitted (AttachComplete, RegistrationComplete, or an
        EAP Access-Accept)."""
        if ue.state != UeContextState.WAIT_COMPLETE:
            return
        ue.state = UeContextState.REGISTERED
        self.stats["attach_accepted"] += 1
        if self.directoryd is not None:
            self.directoryd.update_location(
                ue.imsi, ue.frontend.name, ue.frontend.location_of(ue.ue_ref))
        # Attach latency with exemplar: the ambient span context (when
        # tracing is on) rides along as the sample's trace id, so the
        # orchestrator's p99 can be resolved back to this exact attach.
        sim = self.context.sim
        now = sim.now
        ctx = sim.ctx
        self.attach_latency.record(
            now, now - ue.attach_started,
            trace_id=ctx.trace_id if ctx is not None else None)

    # -- sessions -------------------------------------------------------------------------

    def establish_session(self, ue: AccessContext) -> None:
        """Stage 3: create the session (inside an LTE attach; a PDU session
        request after a 5G registration)."""
        self._spawn("mme.attach_stage3", self._session(ue),
                    f"mme-session:{ue.imsi}")

    def release_session(self, imsi: str, reason: str) -> None:
        self.sessiond.terminate_session(imsi, reason=reason)

    def resume(self, frontend: RanFrontend, ue_ref: Any, imsi: str) -> bool:
        """Idle -> connected (service request): re-point the context at the
        UE's radio and re-establish its bearer.  False when there is no
        registered session to resume."""
        session = self.sessiond.session(imsi)
        ue = self._by_imsi.get(imsi)
        if session is None or ue is None:
            return False
        ue.ue_ref = ue_ref
        ue.frontend = frontend
        self.sessiond.set_connected(imsi, True)
        self._spawn("mme.service_request", self._resume(ue, session),
                    f"service-req:{imsi}")
        return True

    def idle(self, imsi: str) -> None:
        """The RAN reported the UE inactive: ECM-IDLE.  The session stays;
        only the radio side is gone until paging/service-request."""
        if self.sessiond.session(imsi) is not None:
            self.sessiond.set_connected(imsi, False)
            self.stats["idle_transitions"] += 1

    def page(self, imsi: str) -> bool:
        """Page an idle UE (downlink data pending).  Returns whether a
        page was sent toward the UE's last known location."""
        session = self.sessiond.session(imsi)
        if session is None:
            return False
        if session.connected:
            return True  # already reachable
        ue = self._by_imsi.get(imsi)
        if ue is None or self.directoryd is None:
            return False
        record = self.directoryd.lookup(imsi)
        if record is None:
            return False
        pager = getattr(ue.frontend, "page", None)
        if pager is None:
            return False
        tracer = self.context.sim.tracer
        span = NOOP_SPAN if tracer is None else tracer.begin(
            "paging", component="mme", node=self.context.node,
            tags={"imsi": imsi})
        with span.active():
            pager(record.location, imsi)
        span.end()
        return True

    # -- deregister -----------------------------------------------------------------------

    def deregister(self, imsi: str, reason: str,
                   ue: Optional[AccessContext] = None,
                   answer: Any = None) -> None:
        """Release the session, forget the location and drop the context.
        ``ue`` is None when the context is already gone - NAS state is
        ephemeral and a crash wipes it (§3.4) - yet the restored session
        must still go; otherwise the frontend answers with ``answer``."""
        self.stats["detaches"] += 1
        if ue is None:
            self._forget(imsi, reason)
            return
        tracer = self.context.sim.tracer
        with NOOP_SPAN if tracer is None else tracer.child(
                "mme.detach", component="mme", node=self.context.node):
            self._forget(imsi, reason)
            ue.frontend.release(ue, reason, answer)
            self._drop(ue)

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

    # -- stages -------------------------------------------------------------------------

    def _challenge(self, frontend: RanFrontend, ue_ref: Any, imsi: str):
        """Stage 1: subscriber lookup + authentication challenge."""
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_ATTACH_REQUEST)
        self._supersede(imsi)
        profile = self.subscriberdb.get(imsi)
        federated = False
        if profile is not None and profile.k is not None:
            rand = self.context.rng.stream(
                f"auth.rand.{self.context.node}").randbytes(16)
            vector = self.subscriberdb.generate_auth_vector(imsi, rand)
            xres, autn = vector.xres, vector.autn
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
                return self._refuse(AccessContext(0, imsi, frontend, ue_ref),
                                    "unknown subscriber")
            federated = True
            xres, rand = vector_data["xres"], vector_data["rand"]
            autn = vector_data["autn"]
        ue = self._open(frontend, ue_ref, imsi, challenge=rand, xres=xres,
                        federated=federated)
        return frontend.challenge(ue, rand, autn)

    def _resync(self, ue: AccessContext, usim_sqn: int):
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_AUTH_RESPONSE)
        self.subscriberdb.resync_sqn(ue.imsi, usim_sqn)
        rand = self.context.rng.stream(
            f"auth.rand.{self.context.node}").randbytes(16)
        try:
            vector = self.subscriberdb.generate_auth_vector(ue.imsi, rand)
        except KeyError:
            self.abort(ue)
            return
        ue.challenge, ue.xres = rand, vector.xres
        ue.frontend.challenge(ue, rand, vector.autn)

    def _verify_aka(self, ue: AccessContext, res: bytes):
        """Stage 2: RES verification + security mode command."""
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_AUTH_RESPONSE)
        if not hmac.compare_digest(res, ue.xres):
            return self._refuse_answer(ue)
        ue.state = UeContextState.WAIT_SMC
        return ue.frontend.secure(ue)

    def _verify_eap(self, frontend: RanFrontend, ue_ref: Any, imsi: str,
                    ue: Optional[AccessContext], proof: bytes):
        """Stages 1-3 at once: the proof must be HMAC(wifi_secret, nonce).
        The RPC server runs it, so it opens its own span."""
        tracer = self.context.sim.tracer
        with NOOP_SPAN if tracer is None else tracer.child(
                "mme.attach_stage2", component="mme", node=self.context.node):
            if ue is None:
                return frontend.reject(
                    AccessContext(0, imsi, frontend, ue_ref),
                    "no outstanding EAP challenge")
            yield self.context.cpu.submit(
                CPU_CLASS_CONTROL, self.context.config.hardware.attach_cpu_cost)
            ue.xres = self.subscriberdb.eap_proof(imsi, ue.challenge)
            if ue.xres is None:
                self.stats["unknown_subscriber"] += 1
                return self._refuse(ue, "unknown subscriber")
            if not hmac.compare_digest(proof, ue.xres):
                return self._refuse_answer(ue)
            return (yield from self._establish(ue))

    def _session(self, ue: AccessContext):
        """Stage 3: session creation, data-plane programming, accept."""
        cost = self.context.config.hardware.attach_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL,
                                      cost * STAGE_SESSION_SETUP)
        return (yield from self._establish(ue))

    def _establish(self, ue: AccessContext):
        if ue.federated and self.subscriberdb.get(ue.imsi) is None:
            ok = yield from self._cache_federated_profile(ue)
            if not ok:
                return self._refuse(ue, "federated policy unavailable")
        try:
            session = yield from self.sessiond.create_session(ue.imsi)
        except SessionError as exc:
            return self._refuse(ue, str(exc))
        if ue.state != UeContextState.REGISTERED:
            ue.state = UeContextState.WAIT_COMPLETE
        return ue.frontend.accept(ue, session)

    def _resume(self, ue: AccessContext, session: Any):
        cost = self.context.config.hardware.nas_message_cpu_cost
        yield self.context.cpu.submit(CPU_CLASS_CONTROL, max(cost, 1e-4))
        ue.frontend.accept(ue, session)

    def _cache_federated_profile(self, ue: AccessContext):
        """Fetch the roaming subscriber's policy from the MNO (via the FeG)
        and cache a federated profile locally - the paper's local-breakout
        flow: "obtain the policy ... from the federated network, then
        enforce that policy in the AGW" (§3.6)."""
        try:
            response = yield self.federation.get_policy(ue.imsi)
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
        self.subscriberdb.upsert(SubscriberProfile(  # reprolint: disable=desired-state-sync
            imsi=ue.imsi, policy_id=policy_id, federated=True))
        return True

    # -- helpers ------------------------------------------------------------------------

    def _spawn(self, span_name: str, stage, name: str) -> None:
        sim = self.context.sim
        tracer = sim.tracer
        span = NOOP_SPAN if tracer is None else tracer.child(
            span_name, component="mme", node=self.context.node)
        proc = sim.spawn(stage, name=name, ctx=span.context)
        if span.recording:
            span.end_on(proc)

    def _overloaded(self) -> bool:
        """MME congestion control: too much control-plane work queued."""
        return (self.context.cpu.queue_depth(CPU_CLASS_CONTROL) >=
                self.context.config.mme_max_pending)

    def _shed(self, ue: AccessContext) -> Any:
        self.stats["overload_drops"] += 1
        return self._refuse(ue, "congestion")

    def _refuse_answer(self, ue: AccessContext) -> Any:
        self.stats["auth_failures"] += 1
        return self._refuse(ue, AUTH_FAILURE)

    def _refuse(self, ue: AccessContext, cause: str) -> Any:
        """A procedure failed.  During registration that is a rejected
        attach and the context goes; a registered UE whose session failed
        (5G PDU request) stays registered."""
        if ue.state != UeContextState.REGISTERED:
            self.stats["attach_rejected"] += 1
            self._drop(ue)
        return ue.frontend.reject(ue, cause)

    def _forget(self, imsi: str, reason: str) -> None:
        self.sessiond.terminate_session(imsi, reason=reason)
        if self.directoryd is not None:
            self.directoryd.remove(imsi)

    # -- context table ------------------------------------------------------------------

    def _open(self, frontend: RanFrontend, ue_ref: Any, imsi: str,
              **fields: Any) -> AccessContext:
        ue = AccessContext(next(self._ue_ids), imsi, frontend, ue_ref,
                           attach_started=self.context.sim.now, **fields)
        self.contexts[ue.ue_id] = ue
        self._by_imsi[imsi] = ue
        return ue

    def _supersede(self, imsi: str) -> None:
        stale = self._by_imsi.pop(imsi, None)
        if stale is not None:
            self.contexts.pop(stale.ue_id, None)

    def _drop(self, ue: AccessContext) -> None:
        self.contexts.pop(ue.ue_id, None)
        if self._by_imsi.get(ue.imsi) is ue:
            self._by_imsi.pop(ue.imsi, None)

    def update_ue_ref(self, ue_id: int, new_ue_ref: Any) -> bool:
        """Intra-AGW handover: re-point a registered UE with a session at a
        new RAN element and record the move.  False otherwise."""
        ue = self.contexts.get(ue_id)
        if ue is None or ue.state != UeContextState.REGISTERED \
                or self.sessiond.session(ue.imsi) is None:
            return False
        ue.ue_ref = new_ue_ref
        if self.directoryd is not None:
            self.directoryd.update_location(
                ue.imsi, ue.frontend.name, ue.frontend.location_of(new_ue_ref))
        return True

    def context_for(self, imsi: str) -> Optional[AccessContext]:
        return self._by_imsi.get(imsi)
