"""NGAP frontend: the 5G translator at the AGW edge.

The 5G column of Table 1: AMF -> access management, SMF/PCF -> session and
policy management, UPF -> the same software data plane.  This frontend
keeps no UE state of its own: it maps registration, PDU-session and
deregistration NAS onto the generic procedures in
:class:`~repro.core.agw.mme.AccessManagement` and their outcomes back onto
5G NAS and NGAP - adding 5G did not change the core (§3.1).

sessiond keys sessions by subscriber, so a UE has one PDU session; its id
is the NAS default.
"""

from __future__ import annotations

from typing import Any, Dict

from ...fiveg import nas5g, ngap
from ...sim.kernel import Event
from .context import RPC_DEADLINE
from .mme import AccessContext, UeContextState
from .s1ap_frontend import RanNodeFrontend


class NgapFrontend(RanNodeFrontend):
    """5G access frontend of one AGW."""

    name = "ngap"
    service = ngap.NGAP_SERVICE
    node_service = ngap.GNB_NGAP_SERVICE
    kind = "gnb"
    downlink_transport = ngap.DownlinkNasTransport5g
    counters = ("ng_setups", "registrations", "registration_rejects",
                "pdu_sessions", "pdu_rejects", "deregistrations")

    # -- southbound handlers ------------------------------------------------------

    def _on_setup(self, request: ngap.NgSetupRequest) -> ngap.NgSetupResponse:
        self.stats["ng_setups"] += 1
        self._register_node(request.gnb_id)
        return ngap.NgSetupResponse(amf_name=self.context.node, accepted=True)

    def _on_uplink(self, message: Any) -> Dict[str, bool]:
        if isinstance(message, ngap.InitialUeMessage5g):
            if isinstance(message.nas, nas5g.RegistrationRequest):
                self.mme.register(self, (message.gnb_id, message.ran_ue_id),
                                  message.nas.imsi)
            return {"accepted": True}
        if not isinstance(message, ngap.UplinkNasTransport5g):
            return {"accepted": False}
        ue = self.mme.contexts.get(message.amf_ue_id)
        request = message.nas
        if ue is None:
            # The context is gone (a crash wiped it, §3.4); a
            # deregistration still cleans up the restored session.
            if isinstance(request, nas5g.DeregistrationRequest):
                self.mme.deregister(request.imsi, "implicit-detach")
            return {"accepted": False}
        if isinstance(request, nas5g.AuthenticationResponse5g):
            self.mme.authenticate(ue, request.res_star)
        elif isinstance(request, nas5g.SecurityModeComplete5g):
            self.mme.accept(ue)
        elif isinstance(request, nas5g.RegistrationComplete):
            self.stats["registrations"] += 1
            self.mme.complete(ue)
        elif isinstance(request, nas5g.PduSessionEstablishmentRequest):
            if ue.state == UeContextState.REGISTERED:
                self.mme.establish_session(ue)
            else:
                self._downlink(ue, nas5g.PduSessionEstablishmentReject(
                    imsi=ue.imsi, pdu_session_id=request.pdu_session_id,
                    cause="not registered"))
        elif isinstance(request, nas5g.PduSessionReleaseRequest):
            self.mme.release_session(ue.imsi, "pdu-release")
            self._downlink(ue, nas5g.PduSessionReleaseComplete(
                imsi=ue.imsi, pdu_session_id=request.pdu_session_id))
        elif isinstance(request, nas5g.DeregistrationRequest):
            self.stats["deregistrations"] += 1
            self.mme.deregister(ue.imsi, "deregistration", ue, None
                                if request.switch_off
                                else nas5g.DeregistrationAccept(imsi=ue.imsi))
        elif isinstance(request, nas5g.AuthenticationFailure5g):
            self._refused(ue, request.cause)
        return {"accepted": True}

    # -- RanFrontend outcomes (access management -> gNB) ----------------------------

    def challenge(self, ue: AccessContext, rand: bytes, autn: bytes) -> None:
        self._downlink(ue, nas5g.AuthenticationRequest5g(
            imsi=ue.imsi, rand=rand, autn=autn))

    def secure(self, ue: AccessContext) -> None:
        self._downlink(ue, nas5g.SecurityModeCommand5g(imsi=ue.imsi))

    def reject(self, ue: AccessContext, cause: str) -> None:
        """A registered UE was refused a PDU session; anyone else, the
        registration."""
        if ue.state == UeContextState.REGISTERED:
            self.stats["pdu_rejects"] += 1
            message: Any = nas5g.PduSessionEstablishmentReject(
                imsi=ue.imsi, cause=cause)
        else:
            self.stats["registration_rejects"] += 1
            message = nas5g.RegistrationReject(imsi=ue.imsi, cause=cause)
        self._downlink(ue, message)

    def accept(self, ue: AccessContext, session: Any) -> None:
        """RegistrationAccept, or the PDU session resource setup carrying
        its accept."""
        if session is None:
            self._downlink(ue, nas5g.RegistrationAccept(
                imsi=ue.imsi,
                guti_5g=f"{self.context.node}-5g-guti-{ue.ue_id}"))
            return
        self.stats["pdu_sessions"] += 1
        gnb_id, ran_ue_id = ue.ue_ref
        setup = ngap.PduSessionResourceSetupRequest(
            ran_ue_id=ran_ue_id, amf_ue_id=ue.ue_id, pdu_session_id=1,
            agw_teid=session.agw_teid, agw_address=self.context.node,
            nas=nas5g.PduSessionEstablishmentAccept(imsi=ue.imsi,
                                                    ue_ip=session.ue_ip))
        reply = self._channel_for(gnb_id).call(
            ngap.GNB_NGAP_SERVICE, "pdu_session_setup", setup,
            deadline=RPC_DEADLINE)
        reply.add_callback(lambda ev: self._on_pdu_setup(ev, ue.imsi, gnb_id))

    def _on_pdu_setup(self, reply: Event, imsi: str, gnb_id: str) -> None:
        response = reply.value
        if reply.ok and response.success and \
                self.sessiond.session(imsi) is not None:
            self.sessiond.set_enb_tunnel(imsi, response.gnb_teid,
                                         response.gnb_address or gnb_id)

    def release(self, ue: AccessContext, cause: str, answer: Any) -> None:
        """The gNB frees its own radio context on deregistration."""
        if answer is not None:
            self._downlink(ue, answer)
