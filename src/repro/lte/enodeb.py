"""eNodeB model: the LTE RAN node.

Admission, NAS relay and the GTP-U anchor are the :class:`~repro.lte.ran.
RanNode` every RAT shares; this module adds S1AP's message table and what
only LTE has: ECM-IDLE with paging, X2-style handover, re-pointing S1 at
another core (AGW failover) and the S1 path failure that wedges fragile
basebands.

The same eNodeB implementation talks to either core - the paper's
architectural point is precisely that the RAN does not care.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..net.rpc import RpcChannel
from ..net.simnet import Network
from ..sim.kernel import Event, Simulator
from . import s1ap
from .radio import RADIO_DELAY, CellConfig
from .ran import RanNode, RanUeContext
from .ue import Ue

ENB_S1AP_SERVICE = "s1ap-enb"


class Enodeb(RanNode):
    """A simulated eNodeB attached to a core endpoint over S1AP."""

    interface = "S1"
    core_service = s1ap.S1AP_SERVICE
    initial_message = s1ap.InitialUeMessage
    uplink_transport = s1ap.UplinkNasTransport
    teid_base = 0x2000

    def __init__(self, sim: Simulator, network: Network, enb_id: str,
                 core_node: str, cell_config: Optional[CellConfig] = None):
        super().__init__(sim, network, enb_id, core_node, cell_config)
        self._camped: Dict[str, Ue] = {}  # idle UEs listening for paging
        for method, handler in (
                ("downlink_nas", self._on_downlink_nas),
                ("initial_context_setup", self._on_initial_context_setup),
                ("ue_context_release", self._on_ue_context_release),
                ("paging", self._on_paging)):
            self._server.register(ENB_S1AP_SERVICE, method, handler)

    @property
    def enb_id(self) -> str:
        return self.node_id

    @property
    def s1_ready(self) -> bool:
        return self.ready

    # -- S1 setup -------------------------------------------------------------

    def s1_setup(self) -> Event:
        """Register with the core; the returned event carries the response."""
        return self._setup(s1ap.S1SetupRequest(enb_id=self.node_id),
                           "s1setup")

    def retarget_core(self, new_core_node: str) -> Event:
        """Re-point S1 at a different core endpoint (AGW failover, §3.3).

        Closes the old control channel, opens one toward the new node, and
        re-runs S1 setup.  UE contexts and their radio state stay in place;
        the returned event is the new S1 setup's completion.
        """
        self._channel.close()
        self.core_node = new_core_node
        self._channel = RpcChannel(self.sim, self.network, self.node_id,
                                   new_core_node)
        self.ready = False
        return self.s1_setup()

    # -- UE-facing radio interface ------------------------------------------------

    def rrc_connect(self, ue: Ue) -> RanUeContext:
        if self.ready:
            self._camped.pop(ue.imsi, None)  # leaving idle camp
        return super().rrc_connect(ue)

    def release_to_idle(self, ue: Ue) -> None:
        """eNodeB-initiated idle transition (user inactivity).

        Frees the radio context and tells the MME the UE went ECM-IDLE;
        the UE stays *camped* here so paging can reach it.
        """
        context = self._by_imsi.get(ue.imsi)
        if context is None:
            return
        request = s1ap.UeContextReleaseRequest(
            enb_id=self.node_id, enb_ue_id=context.ran_ue_id,
            mme_ue_id=context.core_ue_id or 0, imsi=ue.imsi)
        self.rrc_release(ue)
        self._camped[ue.imsi] = ue
        self.sim.call_later(0.0, self._call_core, "uplink", request)

    def _on_paging(self, message: s1ap.Paging) -> Dict[str, bool]:
        ue = self._camped.get(message.imsi)
        if ue is None:
            return {"paged": False}
        self.sim.call_later(RADIO_DELAY, ue.on_paged)
        return {"paged": True}

    def handover_in(self, ue: Ue, mme_ue_id: int) -> "Event":
        """Accept a UE handed over from another eNodeB on the same AGW.

        Admits the UE, allocates a local GTP-U TEID, and sends an X2-style
        PathSwitchRequest so the AGW re-points the downlink tunnel.  The
        returned event carries the PathSwitchRequestAck (or fails).
        """
        context = self.rrc_connect(ue)
        context.core_ue_id = mme_ue_id
        if context.ran_teid is None:
            context.ran_teid = self._teids.allocate()
        request = s1ap.PathSwitchRequest(
            enb_id=self.node_id, enb_ue_id=context.ran_ue_id,
            mme_ue_id=mme_ue_id, imsi=ue.imsi,
            enb_teid=context.ran_teid, enb_address=self.node_id)
        return self._call_core("path_switch", request)

    def s1_path_failure(self, cause: str = "s1 path failure") -> None:
        """The eNodeB lost its core connection (e.g. GTP path failure over
        the backhaul): drop every RRC connection and surface the failure to
        the basebands - the §3.1 scenario that wedges fragile UEs."""
        for context in list(self._by_imsi.values()):
            ue = context.ue
            self.rrc_release(ue)
            self.sim.call_later(RADIO_DELAY, ue.notify_session_error, cause)

    # -- S1AP downlinks ------------------------------------------------------------

    def _on_downlink_nas(self, message: s1ap.DownlinkNasTransport) -> Any:
        return self._deliver(message.enb_ue_id, message.mme_ue_id,
                             message.nas)

    def _on_initial_context_setup(
            self, message: s1ap.InitialContextSetupRequest) -> Any:
        context = self._setup_bearer(message.enb_ue_id, message.mme_ue_id,
                                     message.agw_teid, message.agw_address,
                                     message.nas)
        if context is None:
            return s1ap.InitialContextSetupResponse(
                enb_ue_id=message.enb_ue_id, mme_ue_id=message.mme_ue_id,
                enb_teid=0, success=False)
        return s1ap.InitialContextSetupResponse(
            enb_ue_id=message.enb_ue_id, mme_ue_id=message.mme_ue_id,
            enb_teid=context.ran_teid, enb_address=self.node_id, success=True)

    def _on_ue_context_release(
            self, message: s1ap.UeContextReleaseCommand) -> Any:
        context = self._by_ran_ue_id.get(message.enb_ue_id)
        if context is not None:
            ue = context.ue
            self.rrc_release(ue)
            if message.cause not in ("detach",):
                # Network-side failure: surface to the UE's baseband.
                self.sim.call_later(RADIO_DELAY, ue.notify_session_error,
                                    message.cause)
        return s1ap.UeContextReleaseComplete(
            enb_ue_id=message.enb_ue_id, mme_ue_id=message.mme_ue_id)
