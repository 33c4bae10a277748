"""gNB model: the 5G base station.

Functionally parallel to :class:`~repro.lte.enodeb.Enodeb` - radio
admission, NAS relay over NGAP, GTP-U anchor - with 5G message types.  It
talks to the same AGW node; the AGW's NGAP frontend terminates the
protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..lte.identifiers import TeidAllocator
from ..lte.radio import CellCapacityError, CellConfig, CellModel
from ..net.rpc import RpcChannel, RpcServer
from ..net.simnet import Network
from ..sim.kernel import Event, Simulator
from . import ngap


@dataclass
class GnbUeContext:
    ue: "Ue5g"
    ran_ue_id: int
    amf_ue_id: Optional[int] = None
    gnb_teid: Optional[int] = None
    agw_teid: Optional[int] = None


class Gnb:
    """A simulated gNB attached to an AGW over NGAP."""

    def __init__(self, sim: Simulator, network: Network, gnb_id: str,
                 core_node: str, cell_config: Optional[CellConfig] = None,
                 ngap_deadline: float = 10.0):
        self.sim = sim
        self.network = network
        self.gnb_id = gnb_id
        self.core_node = core_node
        self.cell = CellModel(cell_config)
        self.ngap_deadline = ngap_deadline
        self._ue_ids = itertools.count(1)
        self._teids = TeidAllocator(start=0x3000)
        self._by_imsi: Dict[str, GnbUeContext] = {}
        self._by_ran_ue_id: Dict[int, GnbUeContext] = {}
        self.ng_ready = False
        self.stats = {"uplink_nas": 0, "downlink_nas": 0,
                      "pdu_setups": 0, "releases": 0}
        network.add_node(gnb_id)
        self._server = RpcServer(sim, network, gnb_id)
        self._server.register(ngap.GNB_NGAP_SERVICE, "downlink_nas",
                              self._on_downlink_nas)
        self._server.register(ngap.GNB_NGAP_SERVICE, "pdu_session_setup",
                              self._on_pdu_session_setup)
        self._server.register(ngap.GNB_NGAP_SERVICE, "ue_context_release",
                              self._on_ue_context_release)
        self._channel = RpcChannel(sim, network, gnb_id, core_node)

    def ng_setup(self) -> Event:
        def proc(sim):
            response = yield self._channel.call(
                ngap.NGAP_SERVICE, "setup",
                ngap.NgSetupRequest(gnb_id=self.gnb_id),
                deadline=self.ngap_deadline)
            self.ng_ready = bool(response.accepted)
            return response

        return self.sim.spawn(proc(self.sim), name=f"ngsetup:{self.gnb_id}")

    # -- UE-facing ------------------------------------------------------------------

    def rrc_connect(self, ue: "Ue5g") -> GnbUeContext:
        if not self.ng_ready:
            raise CellCapacityError(f"{self.gnb_id}: NG not established")
        existing = self._by_imsi.get(ue.imsi)
        if existing is not None:
            return existing
        self.cell.admit(ue.imsi)
        context = GnbUeContext(ue=ue, ran_ue_id=next(self._ue_ids))
        self._by_imsi[ue.imsi] = context
        self._by_ran_ue_id[context.ran_ue_id] = context
        return context

    def rrc_release(self, ue: "Ue5g") -> None:
        context = self._by_imsi.pop(ue.imsi, None)
        if context is None:
            return
        self.stats["releases"] += 1
        self._by_ran_ue_id.pop(context.ran_ue_id, None)
        self.cell.release(ue.imsi)
        if context.gnb_teid is not None:
            self._teids.release(context.gnb_teid)

    def uplink_nas(self, ue: "Ue5g", message: Any) -> None:
        context = self._by_imsi.get(ue.imsi)
        if context is None:
            return
        self.stats["uplink_nas"] += 1
        self.sim.call_later(ue.radio_delay, self._send_uplink, context, message)

    def set_ue_offered_rate(self, imsi: str, mbps: float) -> None:
        if self.cell.is_active(imsi):
            self.cell.set_offered_rate(imsi, mbps)

    def context_for(self, imsi: str) -> Optional[GnbUeContext]:
        return self._by_imsi.get(imsi)

    # -- internals ---------------------------------------------------------------------

    def _send_uplink(self, context: GnbUeContext, message: Any) -> None:
        if context.amf_ue_id is None:
            wrapped: Any = ngap.InitialUeMessage5g(
                gnb_id=self.gnb_id, ran_ue_id=context.ran_ue_id, nas=message)
        else:
            wrapped = ngap.UplinkNasTransport5g(
                gnb_id=self.gnb_id, ran_ue_id=context.ran_ue_id,
                amf_ue_id=context.amf_ue_id, nas=message)
        self.sim.call_later(0.0, self._channel.call, ngap.NGAP_SERVICE,
                            "uplink", wrapped, self.ngap_deadline)

    def _on_downlink_nas(self, message: ngap.DownlinkNasTransport5g) -> Any:
        context = self._by_ran_ue_id.get(message.ran_ue_id)
        if context is None:
            return {"delivered": False}
        context.amf_ue_id = message.amf_ue_id
        self.stats["downlink_nas"] += 1
        self.sim.call_later(context.ue.radio_delay,
                            context.ue.deliver_nas, message.nas)
        return {"delivered": True}

    def _on_pdu_session_setup(
            self, message: ngap.PduSessionResourceSetupRequest) -> Any:
        context = self._by_ran_ue_id.get(message.ran_ue_id)
        if context is None:
            return ngap.PduSessionResourceSetupResponse(
                ran_ue_id=message.ran_ue_id, amf_ue_id=message.amf_ue_id,
                pdu_session_id=message.pdu_session_id, gnb_teid=0,
                success=False)
        self.stats["pdu_setups"] += 1
        context.amf_ue_id = message.amf_ue_id
        context.agw_teid = message.agw_teid
        if context.gnb_teid is None:
            context.gnb_teid = self._teids.allocate()
        if message.nas is not None:
            self.sim.call_later(context.ue.radio_delay,
                                context.ue.deliver_nas, message.nas)
        return ngap.PduSessionResourceSetupResponse(
            ran_ue_id=message.ran_ue_id, amf_ue_id=message.amf_ue_id,
            pdu_session_id=message.pdu_session_id,
            gnb_teid=context.gnb_teid, gnb_address=self.gnb_id, success=True)

    def _on_ue_context_release(
            self, message: ngap.UeContextReleaseCommand5g) -> Any:
        context = self._by_ran_ue_id.get(message.ran_ue_id)
        if context is not None:
            ue = context.ue
            self.rrc_release(ue)
            if message.cause not in ("deregistration",):
                self.sim.call_later(ue.radio_delay, ue.notify_session_error,
                                    message.cause)
        return ngap.UeContextReleaseComplete5g(
            ran_ue_id=message.ran_ue_id, amf_ue_id=message.amf_ue_id)
