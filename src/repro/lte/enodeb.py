"""eNodeB model: radio admission, NAS relay, S1AP endpoint, GTP-U anchor.

The eNodeB does three jobs, matching its real-world role:

1. **Radio admission**: a cell supports a bounded number of active UEs and a
   bounded aggregate throughput (:mod:`repro.lte.radio`).
2. **NAS relay**: uplink NAS is wrapped in S1AP and sent to the configured
   core endpoint (a Magma AGW, or the monolithic EPC in the baseline);
   downlink NAS arrives over the eNodeB's RPC server and is delivered to the
   UE after the radio delay.
3. **User-plane anchor**: it terminates the GTP-U tunnel for each UE
   (allocating the eNodeB-side TEID during initial context setup).

The same eNodeB implementation talks to either core - the paper's
architectural point is precisely that the RAN does not care.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..net.rpc import RpcChannel, RpcServer
from ..net.simnet import Network
from ..sim.kernel import Event, Simulator
from . import s1ap
from .identifiers import TeidAllocator
from .radio import CellCapacityError, CellConfig, CellModel
from .ue import Ue

ENB_S1AP_SERVICE = "s1ap-enb"


@dataclass
class UeContext:
    ue: Ue
    enb_ue_id: int
    mme_ue_id: Optional[int] = None
    enb_teid: Optional[int] = None
    agw_teid: Optional[int] = None
    agw_address: str = ""


class Enodeb:
    """A simulated eNodeB attached to a core endpoint over S1AP."""

    def __init__(self, sim: Simulator, network: Network, enb_id: str,
                 core_node: str, cell_config: Optional[CellConfig] = None,
                 s1ap_deadline: float = 10.0):
        self.sim = sim
        self.network = network
        self.enb_id = enb_id
        self.core_node = core_node
        self.cell = CellModel(cell_config)
        self.s1ap_deadline = s1ap_deadline
        self._ue_ids = itertools.count(1)
        self._teids = TeidAllocator(start=0x2000)
        self._by_imsi: Dict[str, UeContext] = {}
        self._by_enb_ue_id: Dict[int, UeContext] = {}
        self._camped: Dict[str, Ue] = {}  # idle UEs listening for paging
        self.s1_ready = False
        self.stats = {"uplink_nas": 0, "downlink_nas": 0, "rrc_connects": 0,
                      "rrc_rejects": 0, "context_setups": 0, "releases": 0}
        network.add_node(enb_id)
        self._server = RpcServer(sim, network, enb_id)
        self._server.register(ENB_S1AP_SERVICE, "downlink_nas",
                              self._on_downlink_nas)
        self._server.register(ENB_S1AP_SERVICE, "initial_context_setup",
                              self._on_initial_context_setup)
        self._server.register(ENB_S1AP_SERVICE, "ue_context_release",
                              self._on_ue_context_release)
        self._server.register(ENB_S1AP_SERVICE, "paging", self._on_paging)
        self._channel = RpcChannel(sim, network, enb_id, core_node)

    # -- S1 setup -------------------------------------------------------------

    def s1_setup(self) -> Event:
        """Register with the core; the returned event carries the response."""

        def proc(sim):
            response = yield self._call_core(
                "setup", s1ap.S1SetupRequest(enb_id=self.enb_id))
            self.s1_ready = bool(response.accepted)
            return response

        return self.sim.spawn(proc(self.sim), name=f"s1setup:{self.enb_id}")

    def retarget_core(self, new_core_node: str) -> Event:
        """Re-point S1 at a different core endpoint (AGW failover, §3.3).

        Closes the old control channel, opens one toward the new node, and
        re-runs S1 setup.  UE contexts and their radio state stay in place;
        the returned event is the new S1 setup's completion.
        """
        self._channel.close()
        self.core_node = new_core_node
        self._channel = RpcChannel(self.sim, self.network, self.enb_id,
                                   new_core_node)
        self.s1_ready = False
        return self.s1_setup()

    # -- UE-facing radio interface ------------------------------------------------

    def rrc_connect(self, ue: Ue) -> UeContext:
        """Admit a UE to the cell and create its context."""
        if not self.s1_ready:
            self.stats["rrc_rejects"] += 1
            raise CellCapacityError(f"{self.enb_id}: S1 not established")
        self._camped.pop(ue.imsi, None)  # leaving idle camp
        existing = self._by_imsi.get(ue.imsi)
        if existing is not None:
            return existing
        try:
            self.cell.admit(ue.imsi)
        except CellCapacityError:
            self.stats["rrc_rejects"] += 1
            raise
        self.stats["rrc_connects"] += 1
        context = UeContext(ue=ue, enb_ue_id=next(self._ue_ids))
        self._by_imsi[ue.imsi] = context
        self._by_enb_ue_id[context.enb_ue_id] = context
        return context

    def rrc_release(self, ue: Ue) -> None:
        context = self._by_imsi.pop(ue.imsi, None)
        if context is None:
            return
        self.stats["releases"] += 1
        self._by_enb_ue_id.pop(context.enb_ue_id, None)
        self.cell.release(ue.imsi)
        if context.enb_teid is not None:
            self._teids.release(context.enb_teid)

    def uplink_nas(self, ue: Ue, message: Any) -> None:
        """Relay an uplink NAS message to the core (after radio delay)."""
        context = self._by_imsi.get(ue.imsi)
        if context is None:
            return  # UE was released; drop silently like a real radio link
        self.stats["uplink_nas"] += 1
        self.sim.call_later(ue.config.radio_delay, self._send_uplink,
                            context, message)

    def set_ue_offered_rate(self, imsi: str, mbps: float) -> None:
        if self.cell.is_active(imsi):
            self.cell.set_offered_rate(imsi, mbps)

    def connected_ues(self) -> int:
        return len(self._by_imsi)

    def release_to_idle(self, ue: Ue) -> None:
        """eNodeB-initiated idle transition (user inactivity).

        Frees the radio context and tells the MME the UE went ECM-IDLE;
        the UE stays *camped* here so paging can reach it.
        """
        context = self._by_imsi.get(ue.imsi)
        if context is None:
            return
        request = s1ap.UeContextReleaseRequest(
            enb_id=self.enb_id, enb_ue_id=context.enb_ue_id,
            mme_ue_id=context.mme_ue_id or 0, imsi=ue.imsi)
        self.rrc_release(ue)
        self._camped[ue.imsi] = ue
        self.sim.call_later(0.0, self._call_core, "uplink", request)

    def _on_paging(self, message: s1ap.Paging) -> Dict[str, bool]:
        ue = self._camped.get(message.imsi)
        if ue is None:
            return {"paged": False}
        self.sim.call_later(ue.config.radio_delay, ue.on_paged)
        return {"paged": True}

    def handover_in(self, ue: Ue, mme_ue_id: int) -> "Event":
        """Accept a UE handed over from another eNodeB on the same AGW.

        Admits the UE, allocates a local GTP-U TEID, and sends an X2-style
        PathSwitchRequest so the AGW re-points the downlink tunnel.  The
        returned event carries the PathSwitchRequestAck (or fails).
        """
        if not self.s1_ready:
            raise CellCapacityError(f"{self.enb_id}: S1 not established")
        context = self.rrc_connect(ue)
        context.mme_ue_id = mme_ue_id
        if context.enb_teid is None:
            context.enb_teid = self._teids.allocate()
        request = s1ap.PathSwitchRequest(
            enb_id=self.enb_id, enb_ue_id=context.enb_ue_id,
            mme_ue_id=mme_ue_id, imsi=ue.imsi,
            enb_teid=context.enb_teid, enb_address=self.enb_id)
        return self._call_core("path_switch", request)

    def s1_path_failure(self, cause: str = "s1 path failure") -> None:
        """The eNodeB lost its core connection (e.g. GTP path failure over
        the backhaul): drop every RRC connection and surface the failure to
        the basebands - the §3.1 scenario that wedges fragile UEs."""
        for context in list(self._by_imsi.values()):
            ue = context.ue
            self.rrc_release(ue)
            self.sim.call_later(ue.config.radio_delay,
                                ue.notify_session_error, cause)

    def context_for(self, imsi: str) -> Optional[UeContext]:
        return self._by_imsi.get(imsi)

    # -- internals -------------------------------------------------------------------

    def _send_uplink(self, context: UeContext, message: Any) -> None:
        if context.mme_ue_id is None:
            wrapped: Any = s1ap.InitialUeMessage(
                enb_id=self.enb_id, enb_ue_id=context.enb_ue_id, nas=message)
        else:
            wrapped = s1ap.UplinkNasTransport(
                enb_id=self.enb_id, enb_ue_id=context.enb_ue_id,
                mme_ue_id=context.mme_ue_id, nas=message)
        self.sim.call_later(0.0, self._call_core, "uplink", wrapped)

    def _call_core(self, method: str, request: Any) -> Event:
        """S1AP call to the core.  The channel is read here, when the call
        is made: :meth:`retarget_core` may replace it after a deferred
        send was scheduled."""
        return self._channel.call(s1ap.S1AP_SERVICE, method, request,
                                  self.s1ap_deadline)

    def _on_downlink_nas(self, message: s1ap.DownlinkNasTransport) -> Any:
        context = self._by_enb_ue_id.get(message.enb_ue_id)
        if context is None:
            return {"delivered": False}
        context.mme_ue_id = message.mme_ue_id
        self.stats["downlink_nas"] += 1
        self.sim.call_later(context.ue.config.radio_delay,
                            context.ue.deliver_nas, message.nas)
        return {"delivered": True}

    def _on_initial_context_setup(
            self, message: s1ap.InitialContextSetupRequest) -> Any:
        context = self._by_enb_ue_id.get(message.enb_ue_id)
        if context is None:
            return s1ap.InitialContextSetupResponse(
                enb_ue_id=message.enb_ue_id, mme_ue_id=message.mme_ue_id,
                enb_teid=0, success=False)
        self.stats["context_setups"] += 1
        context.mme_ue_id = message.mme_ue_id
        context.agw_teid = message.agw_teid
        context.agw_address = message.agw_address
        if context.enb_teid is None:
            context.enb_teid = self._teids.allocate()
        if message.nas is not None:
            self.sim.call_later(context.ue.config.radio_delay,
                                context.ue.deliver_nas, message.nas)
        return s1ap.InitialContextSetupResponse(
            enb_ue_id=message.enb_ue_id, mme_ue_id=message.mme_ue_id,
            enb_teid=context.enb_teid, enb_address=self.enb_id, success=True)

    def _on_ue_context_release(
            self, message: s1ap.UeContextReleaseCommand) -> Any:
        context = self._by_enb_ue_id.get(message.enb_ue_id)
        if context is not None:
            ue = context.ue
            self.rrc_release(ue)
            if message.cause not in ("detach",):
                # Network-side failure: surface to the UE's baseband.
                self.sim.call_later(ue.config.radio_delay,
                                    ue.notify_session_error, message.cause)
        return s1ap.UeContextReleaseComplete(
            enb_ue_id=message.enb_ue_id, mme_ue_id=message.mme_ue_id)
