"""S1AP frontend: the LTE translator at the AGW edge.

This module is the LTE-specific "left side" of Figure 4: it speaks S1AP
with eNodeBs (over the reliable RPC fabric standing in for SCTP), maps each
uplink NAS message onto a generic access-management procedure, and maps
the procedure outcomes back onto NAS and S1AP downlinks.  No S1AP or NAS
type crosses into :mod:`~repro.core.agw.mme`; it sees only the
:class:`~repro.core.agw.mme.RanFrontend` outcome calls.

:class:`RanNodeFrontend` is the base-station side both cellular frontends
share (the NGAP frontend adds 5G's messages to it), as the eNodeB and the
gNB share :class:`~repro.lte.ran.RanNode`.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ...lte import nas, s1ap
from ...lte.enodeb import ENB_S1AP_SERVICE
from ...net.rpc import RpcChannel, RpcServer
from ...sim.kernel import Event
from .context import RPC_DEADLINE, AgwContext
from .enodebd import Enodebd
from .mme import (
    AUTH_FAILURE,
    AccessContext,
    AccessManagement,
    RanFrontend,
    UeContextState,
)
from .sessiond import Sessiond

UeRef = Tuple[str, int]  # (RAN node id, RAN UE id): (enb_id, enb_ue_id)


class RanNodeFrontend(RanFrontend):
    """What the S1AP and NGAP frontends share: base stations that set up
    with this AGW, an RPC channel back to each, and downlink NAS sent as a
    deferred call whose reply nobody reads (the UE-side guard timers own
    failure semantics)."""

    #: Per protocol: the service this frontend serves, the service its
    #: base stations serve, their enodebd device kind, the downlink NAS
    #: wrapper (constructed ``(RAN UE id, core UE id, nas)``) and the
    #: names of the ``stats`` counters.
    service: str
    node_service: str
    kind: str
    downlink_transport: type
    counters: Tuple[str, ...]

    def __init__(self, context: AgwContext, server: RpcServer,
                 mme: AccessManagement, sessiond: Sessiond,
                 enodebd: Enodebd):
        self.context = context
        self.mme = mme
        self.sessiond = sessiond
        self.enodebd = enodebd
        self._channels: Dict[str, RpcChannel] = {}
        self.stats = dict.fromkeys(self.counters, 0)
        server.register(self.service, "setup", self._on_setup)
        server.register(self.service, "uplink", self._on_uplink)

    def location_of(self, ue_ref: UeRef) -> str:
        return ue_ref[0]

    def _register_node(self, node_id: str) -> None:
        """A base station set up here (or took a UE over by handover):
        track it in enodebd and open the channel back to it."""
        self.enodebd.register(node_id, kind=self.kind)
        self._channel_for(node_id)

    def _refused(self, ue: AccessContext, cause: str) -> None:
        """The USIM refused the challenge: ``sync_failure:<sqn>`` asks for
        SQN resynchronisation, any other cause aborts the registration."""
        if cause.startswith("sync_failure:"):
            self.mme.resync(ue, int(cause.split(":", 1)[1]))
        else:
            self.mme.abort(ue)

    def _channel_for(self, node_id: str) -> RpcChannel:
        channel = self._channels.get(node_id)
        if channel is None:
            channel = RpcChannel(self.context.sim, self.context.network,
                                 self.context.node, node_id)
            self._channels[node_id] = channel
        return channel

    def _downlink(self, ue: AccessContext, message: Any) -> None:
        node_id, ran_ue_id = ue.ue_ref
        self._send(node_id, "downlink_nas",
                   self.downlink_transport(ran_ue_id, ue.ue_id, message))

    def _send(self, node_id: str, method: str, payload: Any) -> None:
        self.context.sim.call_later(0.0, self._channel_for(node_id).call,
                                    self.node_service, method, payload,
                                    RPC_DEADLINE)


class S1apFrontend(RanNodeFrontend):
    """LTE access frontend of one AGW."""

    name = "s1ap"
    service = s1ap.S1AP_SERVICE
    node_service = ENB_S1AP_SERVICE
    kind = "enodeb"
    downlink_transport = s1ap.DownlinkNasTransport
    counters = ("s1_setups", "uplink_messages", "context_setups",
                "context_setup_failures", "releases", "idle_releases",
                "pages", "path_switches")

    def __init__(self, context: AgwContext, server: RpcServer,
                 mme: AccessManagement, sessiond: Sessiond,
                 enodebd: Enodebd):
        super().__init__(context, server, mme, sessiond, enodebd)
        server.register(s1ap.S1AP_SERVICE, "path_switch",
                        self._on_path_switch)

    # -- southbound handlers (eNodeB -> AGW) --------------------------------------

    def _on_setup(self, request: s1ap.S1SetupRequest) -> s1ap.S1SetupResponse:
        self.stats["s1_setups"] += 1
        self._register_node(request.enb_id)
        return s1ap.S1SetupResponse(mme_name=self.context.node,
                                    served_plmn=request.tai.plmn,
                                    accepted=True)

    def _on_uplink(self, message: Any) -> Dict[str, bool]:
        self.stats["uplink_messages"] += 1
        if isinstance(message, s1ap.InitialUeMessage):
            self.enodebd.heartbeat(message.enb_id)
            ue_ref: UeRef = (message.enb_id, message.enb_ue_id)
            request = message.nas
            if isinstance(request, nas.AttachRequest):
                self.mme.register(self, ue_ref, request.imsi)
            elif isinstance(request, nas.ServiceRequest) and \
                    not self.mme.resume(self, ue_ref, request.imsi):
                self._downlink(AccessContext(0, request.imsi, self, ue_ref),
                               nas.ServiceReject(imsi=request.imsi,
                                                 cause="no session"))
            return {"accepted": True}
        if isinstance(message, s1ap.UplinkNasTransport):
            ue = self.mme.contexts.get(message.mme_ue_id)
            request = message.nas
            if ue is None:
                # NAS for a context access management no longer holds - a
                # crash wiped it (§3.4).  A detach still cleans up the
                # restored session; anything else is dropped and the UE's
                # timers force a re-attach.
                if isinstance(request, nas.DetachRequest):
                    self.mme.deregister(request.imsi, "implicit-detach")
            elif isinstance(request, nas.AuthenticationResponse):
                self.mme.authenticate(ue, request.res)
            elif isinstance(request, nas.SecurityModeComplete):
                self.mme.establish_session(ue)
            elif isinstance(request, nas.AttachComplete):
                self.mme.complete(ue)
            elif isinstance(request, nas.DetachRequest):
                self.mme.deregister(ue.imsi, "detach", ue, None
                                    if request.switch_off
                                    else nas.DetachAccept(imsi=ue.imsi))
            elif isinstance(request, nas.AuthenticationFailureMsg):
                self._refused(ue, request.cause)
            return {"accepted": True}
        if isinstance(message, s1ap.UeContextReleaseRequest):
            self.stats["idle_releases"] += 1
            self.mme.idle(message.imsi)
            return {"accepted": True}
        return {"accepted": False}

    def page(self, location: str, imsi: str) -> None:
        """Send a paging request to the eNodeB the UE last camped on."""
        self.stats["pages"] += 1
        self._send(location, "paging", s1ap.Paging(imsi=imsi))

    def _on_path_switch(self, request: s1ap.PathSwitchRequest
                        ) -> s1ap.PathSwitchRequestAck:
        """Intra-AGW handover: re-point the UE's context and downlink
        tunnel at the target eNodeB; the session itself does not move."""
        self._register_node(request.enb_id)
        if not self.mme.update_ue_ref(request.mme_ue_id,
                                      (request.enb_id, request.enb_ue_id)):
            return s1ap.PathSwitchRequestAck(
                enb_ue_id=request.enb_ue_id, mme_ue_id=request.mme_ue_id,
                success=False, cause="unknown UE context or session")
        self.stats["path_switches"] += 1
        self.sessiond.set_enb_tunnel(request.imsi, request.enb_teid,
                                     request.enb_address or request.enb_id)
        return s1ap.PathSwitchRequestAck(
            enb_ue_id=request.enb_ue_id, mme_ue_id=request.mme_ue_id,
            success=True)

    # -- RanFrontend outcomes (access management -> eNodeB) ------------------------

    def challenge(self, ue: AccessContext, rand: bytes, autn: bytes) -> None:
        self._downlink(ue, nas.AuthenticationRequest(
            imsi=ue.imsi, rand=rand, autn=autn))

    def secure(self, ue: AccessContext) -> None:
        self._downlink(ue, nas.SecurityModeCommand(imsi=ue.imsi))

    def reject(self, ue: AccessContext, cause: str) -> None:
        if cause == AUTH_FAILURE:
            message: Any = nas.AuthenticationReject(imsi=ue.imsi)
        else:
            message = nas.AttachReject(imsi=ue.imsi, cause=cause)
        self._downlink(ue, message)

    def accept(self, ue: AccessContext, session: Any) -> None:
        """Initial context setup carrying AttachAccept, or ServiceAccept
        for a registered UE back from idle."""
        if ue.state == UeContextState.REGISTERED:
            message: Any = nas.ServiceAccept(imsi=ue.imsi)
        else:
            message = nas.AttachAccept(
                imsi=ue.imsi, ue_ip=session.ue_ip,
                guti=f"{self.context.node}-guti-{ue.ue_id}")
        enb_id, enb_ue_id = ue.ue_ref
        request = s1ap.InitialContextSetupRequest(
            enb_ue_id=enb_ue_id, mme_ue_id=ue.ue_id,
            ue_agg_max_bitrate_mbps=session.installed_rate_mbps,
            agw_teid=session.agw_teid, agw_address=self.context.node,
            nas=message)
        self.context.sim.call_later(0.0, self._setup_context,
                                    self._channel_for(enb_id), request,
                                    session.imsi, enb_id)

    def release(self, ue: AccessContext, cause: str, answer: Any) -> None:
        if answer is not None:
            self._downlink(ue, answer)
        enb_id, enb_ue_id = ue.ue_ref
        self.stats["releases"] += 1
        command = s1ap.UeContextReleaseCommand(
            enb_ue_id=enb_ue_id, mme_ue_id=ue.ue_id, cause=cause)
        self._send(enb_id, "ue_context_release", command)

    # -- internals ----------------------------------------------------------------------

    def _setup_context(self, channel: RpcChannel,
                       request: s1ap.InitialContextSetupRequest, imsi: str,
                       enb_id: str) -> None:
        reply = channel.call(ENB_S1AP_SERVICE, "initial_context_setup",
                             request, RPC_DEADLINE)
        reply.add_callback(
            lambda ev: self._on_context_setup(ev, imsi, enb_id))

    def _on_context_setup(self, reply: Event, imsi: str, enb_id: str) -> None:
        response = reply.value
        if not reply.ok or not response.success:
            self.stats["context_setup_failures"] += 1
            return
        self.stats["context_setups"] += 1
        if self.sessiond.session(imsi) is not None:
            self.sessiond.set_enb_tunnel(imsi, response.enb_teid,
                                         response.enb_address or enb_id)
