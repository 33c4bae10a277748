"""UE (user equipment) models: the parts every UE shares, and the LTE UE.

:class:`UeBase` is what the LTE and 5G UEs share: the USIM that answers a
network challenge (or reports why it cannot, SQN resynchronisation
included), the guard timer each procedure races, and the procedure's root
span.

:class:`Ue` drives the LTE NAS dialogue end-to-end: attach request, EPS-AKA
challenge response, security mode, attach accept/complete.  Its guard timer
(T3410) defines what a *failed connection attempt* means for the paper's
connection success rate (CSR) metric.

The ``fragile_baseband`` flag models the low-end basebands described in
§3.1: when such a UE experiences a session-level protocol failure (e.g. its
GTP tunnel collapsing over bad backhaul in the *baseline* architecture), it
does not recover until power-cycled - the "confusing lack of coverage" the
paper describes, and the behaviour Magma's local GTP termination shields.
"""

from __future__ import annotations

from typing import Any, Optional

from ..net.rpc import RpcError
from ..obs.tracing import NOOP_SPAN
from ..record import record
from ..sim.kernel import Event, Simulator
from . import auth, nas
from .radio import CellCapacityError


class UeState:
    DEREGISTERED = "deregistered"
    ATTACHING = "attaching"
    REGISTERED = "registered"
    IDLE = "idle"    # ECM-IDLE: session anchored, radio context released
    STUCK = "stuck"  # fragile baseband wedged by a protocol failure


@record
class UeConfig:
    fragile_baseband: bool = False


class AttachOutcome:
    """Result record for one attach attempt."""

    __slots__ = ("success", "latency", "cause")

    def __init__(self, success: bool, latency: float, cause: str = ""):
        self.success = success
        self.latency = latency
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "ok" if self.success else f"failed({self.cause})"
        return f"<AttachOutcome {status} {self.latency:.2f}s>"


def _succeeded(ev: Event) -> bool:
    """Whether a procedure's result event reports success: True, or an
    :class:`AttachOutcome` whose attach worked."""
    if not ev.ok:
        return False
    value = ev.value
    return bool(value.success if isinstance(value, AttachOutcome) else value)


class UeBase:
    """A UE's USIM and procedure plumbing, whichever RAT carries its NAS.

    A subclass names its RAT's answers to a challenge and provides
    ``_send_nas(message)`` (uplink through its RAN node) and
    ``_fail_procedure(cause)`` (end the running procedure as failed).
    """

    #: The NAS answers to a challenge: constructed ``(imsi, res)`` and
    #: ``(imsi, cause)``.
    auth_response: type
    auth_failure: type

    def __init__(self, sim: Simulator, imsi: str, k: bytes, opc: bytes):
        self.sim = sim
        self.imsi = imsi
        self.k = k
        self.opc = opc
        self.usim_sqn = 0
        self.ip_address: Optional[str] = None
        self.offered_mbps = 0.0

    def _root_span(self, name: str, result: Event, **tags: Any) -> Any:
        """Open a procedure's span - a child of the ambient trace when
        there is one (a paging-triggered service request), else a new
        trace - closed by ``result``."""
        tracer = self.sim.tracer
        if tracer is None:
            return NOOP_SPAN
        span = tracer.begin(name, component="ue",
                            tags={"imsi": self.imsi, **tags})
        if span.recording:
            span.end_on(result, ok=_succeeded)
        return span

    def _guarded(self, inner: Event, timeout: float, name: str):
        """Race a procedure's ``inner`` event against a guard timer; True
        when ``inner`` won, and a failed ``inner`` raises.  Reached with
        ``yield from``, so it costs the calling process no kernel entry.

        The timer is revoked however the race ends instead of rotting in
        the scheduler for its full window (with thousands of UEs those
        corpses dominate the heap).
        """
        guard = self.sim.event(name)
        guard_timer = self.sim.schedule(timeout, guard.succeed)
        try:
            race = yield self.sim.any_of([inner, guard])
        finally:
            guard_timer.cancel()
        return inner in race

    def _on_auth_request(self, message: Any) -> None:
        """The USIM's side of AKA: check AUTN, then answer with RES.

        An SQN failure reports the USIM's SQN so the network can re-issue
        a fresh vector (3GPP resynchronisation: a UE appears at an AGW
        whose SQN state lags the USIM's); any other failure is reported
        and ends the procedure.
        """
        try:
            network_sqn = auth.usim_verify_autn(
                self.k, self.opc, message.rand, message.autn, self.usim_sqn)
        except auth.AuthenticationFailure as exc:
            if "SQN" in str(exc):
                self._send_nas(self.auth_failure(
                    self.imsi, f"sync_failure:{self.usim_sqn}"))
                return
            self._send_nas(self.auth_failure(self.imsi, str(exc)))
            self._fail_procedure(str(exc))
            return
        self.usim_sqn = network_sqn
        self._send_nas(self.auth_response(
            self.imsi, auth.usim_compute_res(self.k, self.opc, message.rand)))


class Ue(UeBase):
    """A simulated LTE UE with a USIM."""

    auth_response = nas.AuthenticationResponse
    auth_failure = nas.AuthenticationFailureMsg

    def __init__(self, sim: Simulator, imsi: str, k: bytes, opc: bytes,
                 enb: "Enodeb", config: Optional[UeConfig] = None):
        super().__init__(sim, imsi, k, opc)
        self.enb = enb
        self.config = config or UeConfig()
        self.state = UeState.DEREGISTERED
        self.bearer_id: Optional[int] = None
        self.guti: Optional[str] = None
        self._attach_done: Optional[Event] = None
        self._attach_started_at = 0.0
        self.stats = {"attach_attempts": 0, "attach_successes": 0,
                      "attach_failures": 0, "session_errors": 0,
                      "power_cycles": 0}

    # -- public API --------------------------------------------------------------

    def attach(self) -> Event:
        """Start one attach attempt.

        Returns an event that *succeeds* with an :class:`AttachOutcome`
        whether the attempt worked or not (callers inspect ``.success``);
        this keeps CSR accounting simple.
        """
        result = self.sim.event(f"ue.{self.imsi}.attach")
        if self.state == UeState.STUCK:
            result.succeed(AttachOutcome(False, 0.0, "baseband stuck"))
            return result
        if self.state != UeState.DEREGISTERED:
            result.succeed(AttachOutcome(False, 0.0,
                                         f"bad state {self.state}"))
            return result
        self.stats["attach_attempts"] += 1
        self.state = UeState.ATTACHING
        self._attach_started_at = self.sim.now
        self._attach_done = self.sim.event(f"ue.{self.imsi}.attach_inner")
        span = self._root_span("attach", result)
        self.sim.spawn(self._attach_procedure(result),
                       name=f"attach:{self.imsi}", ctx=span.context)
        return result

    def detach(self, switch_off: bool = True) -> Event:
        """Detach from the network.

        ``switch_off=True`` (default) is the power-off style: fire and
        forget.  ``switch_off=False`` is a graceful detach - the UE waits
        for the network's DetachAccept (or a short guard timer).  The
        returned event succeeds with True once the UE is deregistered.
        """
        done = self.sim.event(f"ue.{self.imsi}.detach")
        if self.state != UeState.REGISTERED:
            done.succeed(False)
            return done
        span = self._root_span("detach", done, switch_off=switch_off)
        with span.active():
            self._send_nas(nas.DetachRequest(imsi=self.imsi,
                                             switch_off=switch_off))
            if switch_off:
                self._clear_session()
                self.state = UeState.DEREGISTERED
                done.succeed(True)
                return done
            self._detach_done = done
            # Cancelable guard: if the network never answers, detach locally
            # after 5s (3GPP behaviour).  When DetachAccept wins the race the
            # timer is revoked instead of rotting for its full window — the
            # same bug class PR 6 fixed for service-request/attach guards.
            guard_timer = self.sim.schedule(5.0, self._finish_detach)
            done.add_callback(lambda ev: guard_timer.cancel())
        return done

    def _finish_detach(self) -> None:
        self._clear_session()
        self.state = UeState.DEREGISTERED
        done = getattr(self, "_detach_done", None)
        if done is not None and not done.triggered:
            done.succeed(True)

    def set_offered_rate(self, mbps: float) -> None:
        """Offered downlink traffic rate while registered."""
        if mbps < 0:
            raise ValueError("offered rate must be >= 0")
        self.offered_mbps = mbps
        if self.state == UeState.REGISTERED:
            self.enb.set_ue_offered_rate(self.imsi, mbps)

    def go_idle(self) -> None:
        """Enter ECM-IDLE: the radio context is released, the session (IP,
        policy state) stays anchored at the AGW.  The UE camps on the cell
        and can be paged."""
        if self.state != UeState.REGISTERED:
            return
        tracer = self.sim.tracer
        with NOOP_SPAN if tracer is None else tracer.begin(
                "go_idle", component="ue", tags={"imsi": self.imsi}):
            self.enb.release_to_idle(self)
            self.state = UeState.IDLE

    def service_request(self) -> Event:
        """Return from idle to connected (UE-originated data, or paging).

        The returned event succeeds with True once the network re-
        establishes the radio context and bearer.
        """
        result = self.sim.event(f"ue.{self.imsi}.service_request")
        if self.state != UeState.IDLE:
            result.succeed(False)
            return result
        span = self._root_span("service_request", result)

        def proc(sim):
            try:
                self.enb.rrc_connect(self)
            except CellCapacityError:  # cell full or S1 down: SR fails clean
                result.succeed(False)
                return
            self._sr_done = self.sim.event("sr-inner")
            self._send_nas(nas.ServiceRequest(imsi=self.imsi))
            if (yield from self._guarded(self._sr_done, 10.0, "sr-guard")):
                self.state = UeState.REGISTERED
                if self.offered_mbps > 0:
                    self.enb.set_ue_offered_rate(self.imsi,
                                                 self.offered_mbps)
                result.succeed(True)
            else:
                self.enb.rrc_release(self)
                self.state = UeState.IDLE
                result.succeed(False)

        self.sim.spawn(proc(self.sim), name=f"service-req:{self.imsi}",
                       ctx=span.context)
        return result

    def on_paged(self) -> None:
        """The network paged us: downlink data is waiting."""
        if self.state == UeState.IDLE:
            self.service_request()

    def handover_to(self, target_enb) -> Event:
        """Move to another radio behind the *same* AGW (§3.2 mobility).

        The session (IP address, policy, usage counters) stays anchored at
        the AGW; only the RAN-side tunnel switches.  The returned event
        succeeds with True/False.
        """
        result = self.sim.event(f"ue.{self.imsi}.handover")
        if self.state != UeState.REGISTERED:
            result.succeed(False)
            return result
        source_enb = self.enb
        source_context = source_enb.context_for(self.imsi)
        if source_context is None or source_context.core_ue_id is None:
            result.succeed(False)
            return result
        span = self._root_span("handover", result)
        try:
            with span.active():
                ack_event = target_enb.handover_in(self,
                                                   source_context.core_ue_id)
        except CellCapacityError:  # target cell full or its S1 is down
            result.succeed(False)
            return result

        def proc(sim):
            try:
                ack = yield ack_event
            except RpcError:  # path-switch RPC to the core failed/timed out
                target_enb.rrc_release(self)
                result.succeed(False)
                return
            if ack.success:
                source_enb.rrc_release(self)
                self.enb = target_enb
                if self.offered_mbps > 0:
                    target_enb.set_ue_offered_rate(self.imsi,
                                                   self.offered_mbps)
                result.succeed(True)
            else:
                target_enb.rrc_release(self)
                result.succeed(False)

        self.sim.spawn(proc(self.sim), name=f"handover:{self.imsi}",
                       ctx=span.context)
        return result

    def notify_session_error(self, cause: str = "") -> None:
        """The network lost this UE's session (e.g. GTP path failure)."""
        self.stats["session_errors"] += 1
        self._clear_session()
        if self.config.fragile_baseband:
            self.state = UeState.STUCK
        else:
            self.state = UeState.DEREGISTERED
        self._fail_procedure(cause or "session error")

    def power_cycle(self) -> None:
        """Operator/user power cycles the device, clearing a stuck baseband."""
        self.stats["power_cycles"] += 1
        self._clear_session()
        self.state = UeState.DEREGISTERED

    @property
    def is_registered(self) -> bool:
        return self.state == UeState.REGISTERED

    # -- NAS receive path -----------------------------------------------------------

    def deliver_nas(self, message: Any) -> None:
        """Downlink NAS delivery (called by the eNodeB after radio delay)."""
        if isinstance(message, nas.AuthenticationRequest):
            self._on_auth_request(message)
        elif isinstance(message, nas.SecurityModeCommand):
            self._send_nas(nas.SecurityModeComplete(imsi=self.imsi))
        elif isinstance(message, nas.AttachAccept):
            self._on_attach_accept(message)
        elif isinstance(message, (nas.AttachReject, nas.AuthenticationReject)):
            self._fail_procedure(message.cause)
        elif isinstance(message, nas.DetachAccept):
            self._finish_detach()
        elif isinstance(message, nas.ServiceAccept):
            done = getattr(self, "_sr_done", None)
            if done is not None and not done.triggered:
                done.succeed(True)
        # Unknown downlink NAS is ignored (forward compatibility).

    # -- internals ----------------------------------------------------------------

    def _attach_procedure(self, result: Event):
        try:
            self.enb.rrc_connect(self)
        except Exception as exc:  # cell full, eNB down, ...
            self.state = UeState.DEREGISTERED
            self.stats["attach_failures"] += 1
            result.succeed(AttachOutcome(False, 0.0, str(exc)))
            return
        self._send_nas(nas.AttachRequest(imsi=self.imsi))
        cause = "T3410 expiry"
        try:
            attached = yield from self._guarded(
                self._attach_done, nas.T3410_ATTACH,
                "attach-guard")
        except Exception as exc:  # reject / auth failure / session error
            attached, cause = False, str(exc)
        latency = self.sim.now - self._attach_started_at
        if attached:
            self.state = UeState.REGISTERED
            self.stats["attach_successes"] += 1
            if self.offered_mbps > 0:
                self.enb.set_ue_offered_rate(self.imsi, self.offered_mbps)
            result.succeed(AttachOutcome(True, latency))
        else:
            self.state = UeState.DEREGISTERED
            self.stats["attach_failures"] += 1
            self.enb.rrc_release(self)
            result.succeed(AttachOutcome(False, latency, cause))

    def _on_attach_accept(self, message: nas.AttachAccept) -> None:
        self.ip_address = message.ue_ip
        self.bearer_id = message.bearer_id
        self.guti = message.guti
        self._send_nas(nas.AttachComplete(imsi=self.imsi))
        if self._attach_done is not None and not self._attach_done.triggered:
            self._attach_done.succeed()

    def _send_nas(self, message: Any) -> None:
        self.enb.uplink_nas(self, message)

    def _fail_procedure(self, cause: str) -> None:
        if self._attach_done is not None and not self._attach_done.triggered:
            self._attach_done.fail(RuntimeError(cause))

    def _clear_session(self) -> None:
        self.ip_address = None
        self.bearer_id = None
        self.offered_mbps = self.offered_mbps  # offered intent persists
        self.enb.rrc_release(self)
