"""gNB model: the 5G RAN node.

Radio admission, NAS relay and the GTP-U anchor are the
:class:`~repro.lte.ran.RanNode` the eNodeB runs on; the gNB only speaks
NGAP's messages.  It talks to the same AGW node, whose NGAP frontend
terminates the protocol.
"""

from __future__ import annotations

from typing import Any, Optional

from ..lte.radio import CellConfig
from ..lte.ran import RanNode
from ..net.simnet import Network
from ..sim.kernel import Event, Simulator
from . import ngap


class Gnb(RanNode):
    """A simulated gNB attached to an AGW over NGAP."""

    interface = "NG"
    core_service = ngap.NGAP_SERVICE
    initial_message = ngap.InitialUeMessage5g
    uplink_transport = ngap.UplinkNasTransport5g
    teid_base = 0x3000

    def __init__(self, sim: Simulator, network: Network, gnb_id: str,
                 core_node: str, cell_config: Optional[CellConfig] = None):
        super().__init__(sim, network, gnb_id, core_node, cell_config)
        self._server.register(ngap.GNB_NGAP_SERVICE, "downlink_nas",
                              self._on_downlink_nas)
        self._server.register(ngap.GNB_NGAP_SERVICE, "pdu_session_setup",
                              self._on_pdu_session_setup)

    @property
    def ng_ready(self) -> bool:
        return self.ready

    def ng_setup(self) -> Event:
        """Register with the AMF; the returned event carries the response."""
        return self._setup(ngap.NgSetupRequest(gnb_id=self.node_id),
                           "ngsetup")

    # -- NGAP downlinks ---------------------------------------------------------------

    def _on_downlink_nas(self, message: ngap.DownlinkNasTransport5g) -> Any:
        return self._deliver(message.ran_ue_id, message.amf_ue_id,
                             message.nas)

    def _on_pdu_session_setup(
            self, message: ngap.PduSessionResourceSetupRequest) -> Any:
        context = self._setup_bearer(message.ran_ue_id, message.amf_ue_id,
                                     message.agw_teid, message.agw_address,
                                     message.nas)
        if context is None:
            return ngap.PduSessionResourceSetupResponse(
                ran_ue_id=message.ran_ue_id, amf_ue_id=message.amf_ue_id,
                pdu_session_id=message.pdu_session_id, gnb_teid=0,
                success=False)
        return ngap.PduSessionResourceSetupResponse(
            ran_ue_id=message.ran_ue_id, amf_ue_id=message.amf_ue_id,
            pdu_session_id=message.pdu_session_id,
            gnb_teid=context.ran_teid, gnb_address=self.node_id, success=True)
