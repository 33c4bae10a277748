"""5G UE model: registration then PDU session establishment.

Unlike the LTE UE, a 5G UE performs two separate procedures: it first
*registers* (authentication + security), then establishes a *PDU session*
to get an IP and user plane.  Both are driven against the same AGW generic
functions via the NGAP frontend.  The USIM, the guard timer and the root
span are the LTE UE's (:class:`~repro.lte.ue.UeBase`).
"""

from __future__ import annotations

from typing import Any, Optional

from ..lte.nas import T3410_ATTACH
from ..lte.radio import CellCapacityError
from ..lte.ue import UeBase
from ..sim.kernel import Event, Simulator
from . import nas5g


class Ue5gState:
    DEREGISTERED = "deregistered"
    REGISTERING = "registering"
    REGISTERED = "registered"            # no PDU session yet
    SESSION_PENDING = "session-pending"
    SESSION_ACTIVE = "session-active"


class Ue5g(UeBase):
    """A simulated 5G UE."""

    auth_response = nas5g.AuthenticationResponse5g
    auth_failure = nas5g.AuthenticationFailure5g

    def __init__(self, sim: Simulator, imsi: str, k: bytes, opc: bytes,
                 gnb: "Gnb"):
        super().__init__(sim, imsi, k, opc)
        self.gnb = gnb
        self.state = Ue5gState.DEREGISTERED
        self.guti_5g: Optional[str] = None
        self._procedure_done: Optional[Event] = None
        self.stats = {"registrations": 0, "registration_failures": 0,
                      "pdu_sessions": 0, "pdu_failures": 0}

    # -- procedures ---------------------------------------------------------------

    def register(self) -> Event:
        """Run the registration procedure; event value is True/False."""
        result = self.sim.event(f"ue5g.{self.imsi}.register")
        if self.state != Ue5gState.DEREGISTERED:
            result.succeed(False)
            return result
        self.state = Ue5gState.REGISTERING
        self._procedure_done = self.sim.event("reg-inner")
        self.sim.spawn(self._run_procedure(
            result, nas5g.RegistrationRequest(imsi=self.imsi),
            success_state=Ue5gState.REGISTERED,
            failure_state=Ue5gState.DEREGISTERED,
            success_counter="registrations",
            failure_counter="registration_failures"),
            name=f"5g-register:{self.imsi}",
            ctx=self._root_span("register", result).context)
        return result

    def establish_pdu_session(self) -> Event:
        """Run PDU session establishment; event value is True/False."""
        result = self.sim.event(f"ue5g.{self.imsi}.pdu")
        if self.state != Ue5gState.REGISTERED:
            result.succeed(False)
            return result
        self.state = Ue5gState.SESSION_PENDING
        self._procedure_done = self.sim.event("pdu-inner")
        self.sim.spawn(self._run_procedure(
            result, nas5g.PduSessionEstablishmentRequest(imsi=self.imsi),
            success_state=Ue5gState.SESSION_ACTIVE,
            failure_state=Ue5gState.REGISTERED,
            success_counter="pdu_sessions",
            failure_counter="pdu_failures",
            connect=False),
            name=f"5g-pdu:{self.imsi}",
            ctx=self._root_span("pdu_session", result).context)
        return result

    def release_pdu_session(self) -> Event:
        """Tear down the PDU session but stay registered (5G split)."""
        result = self.sim.event(f"ue5g.{self.imsi}.pdu_release")
        if self.state != Ue5gState.SESSION_ACTIVE:
            result.succeed(False)
            return result
        self.state = Ue5gState.SESSION_PENDING
        self._procedure_done = self.sim.event("pdu-release-inner")
        self.sim.spawn(self._run_procedure(
            result, nas5g.PduSessionReleaseRequest(imsi=self.imsi),
            success_state=Ue5gState.REGISTERED,
            failure_state=Ue5gState.REGISTERED,
            success_counter="pdu_sessions",   # reuse counter bucket
            failure_counter="pdu_failures",
            connect=False),
            name=f"5g-pdu-release:{self.imsi}")
        result.add_callback(lambda ev: setattr(self, "ip_address", None)
                            if ev.value else None)
        return result

    def deregister(self) -> None:
        if self.state == Ue5gState.DEREGISTERED:
            return
        self._send_nas(nas5g.DeregistrationRequest(imsi=self.imsi,
                                                   switch_off=True))
        self.ip_address = None
        self.gnb.rrc_release(self)
        self.state = Ue5gState.DEREGISTERED

    def set_offered_rate(self, mbps: float) -> None:
        if mbps < 0:
            raise ValueError("offered rate must be >= 0")
        self.offered_mbps = mbps
        if self.state == Ue5gState.SESSION_ACTIVE:
            self.gnb.set_ue_offered_rate(self.imsi, mbps)

    # -- NAS handling -----------------------------------------------------------------

    def deliver_nas(self, message: Any) -> None:
        if isinstance(message, nas5g.AuthenticationRequest5g):
            self._on_auth_request(message)
        elif isinstance(message, nas5g.SecurityModeCommand5g):
            self._send_nas(nas5g.SecurityModeComplete5g(imsi=self.imsi))
        elif isinstance(message, nas5g.RegistrationAccept):
            self.guti_5g = message.guti_5g
            self._send_nas(nas5g.RegistrationComplete(imsi=self.imsi))
            self._finish(True)
        elif isinstance(message, nas5g.RegistrationReject):
            self._finish(False)
        elif isinstance(message, nas5g.PduSessionEstablishmentAccept):
            self.ip_address = message.ue_ip
            self._finish(True)
        elif isinstance(message, nas5g.PduSessionEstablishmentReject):
            self._finish(False)
        elif isinstance(message, nas5g.PduSessionReleaseComplete):
            self._finish(True)

    # -- internals ------------------------------------------------------------------------

    def _run_procedure(self, result: Event, initial_message: Any,
                       success_state: str, failure_state: str,
                       success_counter: str, failure_counter: str,
                       connect: bool = True):
        if connect:
            try:
                self.gnb.rrc_connect(self)
            except CellCapacityError:  # cell full or NG down: fails cleanly
                self.state = failure_state
                self.stats[failure_counter] += 1
                result.succeed(False)
                return
        inner = self._procedure_done
        self._send_nas(initial_message)
        won = yield from self._guarded(inner, T3410_ATTACH, "guard")
        ok = won and inner.value is True
        if ok:
            self.state = success_state
            self.stats[success_counter] += 1
            if (success_state == Ue5gState.SESSION_ACTIVE
                    and self.offered_mbps > 0):
                self.gnb.set_ue_offered_rate(self.imsi, self.offered_mbps)
        else:
            self.state = failure_state
            self.stats[failure_counter] += 1
            if failure_state == Ue5gState.DEREGISTERED:
                self.gnb.rrc_release(self)
        result.succeed(ok)

    def _finish(self, ok: bool) -> None:
        if self._procedure_done is not None and \
                not self._procedure_done.triggered:
            self._procedure_done.succeed(ok)

    def _fail_procedure(self, cause: str) -> None:
        self._finish(False)

    def _send_nas(self, message: Any) -> None:
        self.gnb.uplink_nas(self, message)
