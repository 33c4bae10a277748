"""One RAN node for every cellular RAT: the part an eNodeB and a gNB share.

A base station does three jobs, whatever its radio generation:

1. **Radio admission**: a cell supports a bounded number of active UEs and a
   bounded aggregate throughput (:mod:`repro.lte.radio`).
2. **NAS relay**: uplink NAS is wrapped in the RAT's control protocol and
   sent to the configured core endpoint (a Magma AGW, or the monolithic EPC
   in the baseline); downlink NAS arrives over the node's RPC server and is
   delivered to the UE after the radio delay.
3. **User-plane anchor**: it terminates the GTP-U tunnel for each UE,
   allocating the RAN-side TEID when the core sets up the bearer.

:class:`RanNode` does all three.  A subclass names its protocol's uplink
message types and maps its downlink messages onto :meth:`RanNode._deliver`
and :meth:`RanNode._setup_bearer`: :class:`~repro.lte.enodeb.Enodeb` with
S1AP (plus LTE's idle mode, paging and handover),
:class:`~repro.fiveg.gnb.Gnb` with NGAP.  The wire types stay per RAT;
only the relay is shared - the RAN-side mirror of the AGW terminating
radio-specific protocols at its edge (§3.1).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from ..net.rpc import RpcChannel, RpcServer
from ..net.simnet import Network
from ..record import record
from ..sim.kernel import Event, Simulator
from .identifiers import TeidAllocator
from .radio import RADIO_DELAY, CellCapacityError, CellConfig, CellModel

#: Deadline of the RAN node's control-plane calls to the core.
CORE_DEADLINE = 10.0


@record
class RanUeContext:
    """One connected UE at a RAN node: its id on each side of the control
    interface and the two ends of its GTP-U tunnel."""

    ue: Any
    ran_ue_id: int
    core_ue_id: Optional[int] = None
    ran_teid: Optional[int] = None
    agw_teid: Optional[int] = None
    agw_address: str = ""


class RanNode:
    """A base station attached to a core endpoint."""

    #: Per RAT: the control interface named in a rejection ("S1", "NG"),
    #: the core's RPC service, the uplink wrappers for a UE's first and
    #: later NAS messages (constructed ``(node id, RAN UE id, [core UE
    #: id,] nas)``), and the first RAN-side TEID.
    interface: str
    core_service: str
    initial_message: type
    uplink_transport: type
    teid_base: int

    def __init__(self, sim: Simulator, network: Network, node_id: str,
                 core_node: str, cell_config: Optional[CellConfig]):
        self.sim = sim
        self.network = network
        self.node_id = node_id
        self.core_node = core_node
        self.cell = CellModel(cell_config)
        self._ue_ids = itertools.count(1)
        self._teids = TeidAllocator(start=self.teid_base)
        self._by_imsi: Dict[str, RanUeContext] = {}
        self._by_ran_ue_id: Dict[int, RanUeContext] = {}
        self.ready = False
        self.stats = {"uplink_nas": 0, "downlink_nas": 0, "rrc_connects": 0,
                      "rrc_rejects": 0, "bearer_setups": 0, "releases": 0}
        network.add_node(node_id)
        self._server = RpcServer(sim, network, node_id)
        self._channel = RpcChannel(sim, network, node_id, core_node)

    def _setup(self, request: Any, name: str) -> Event:
        """Register with the core; the returned event carries the response."""

        def proc(sim):
            response = yield self._call_core("setup", request)
            self.ready = bool(response.accepted)
            return response

        return self.sim.spawn(proc(self.sim), name=f"{name}:{self.node_id}")

    # -- UE-facing radio interface -------------------------------------------------

    def rrc_connect(self, ue: Any) -> RanUeContext:
        """Admit a UE to the cell and create its context."""
        if not self.ready:
            self.stats["rrc_rejects"] += 1
            raise CellCapacityError(
                f"{self.node_id}: {self.interface} not established")
        existing = self._by_imsi.get(ue.imsi)
        if existing is not None:
            return existing
        try:
            self.cell.admit(ue.imsi)
        except CellCapacityError:
            self.stats["rrc_rejects"] += 1
            raise
        self.stats["rrc_connects"] += 1
        context = RanUeContext(ue=ue, ran_ue_id=next(self._ue_ids))
        self._by_imsi[ue.imsi] = context
        self._by_ran_ue_id[context.ran_ue_id] = context
        return context

    def rrc_release(self, ue: Any) -> None:
        context = self._by_imsi.pop(ue.imsi, None)
        if context is None:
            return
        self.stats["releases"] += 1
        self._by_ran_ue_id.pop(context.ran_ue_id, None)
        self.cell.release(ue.imsi)
        if context.ran_teid is not None:
            self._teids.release(context.ran_teid)

    def uplink_nas(self, ue: Any, message: Any) -> None:
        """Relay an uplink NAS message to the core (after radio delay)."""
        context = self._by_imsi.get(ue.imsi)
        if context is None:
            return  # UE was released; drop silently like a real radio link
        self.stats["uplink_nas"] += 1
        self.sim.call_later(RADIO_DELAY, self._send_uplink, context, message)

    def set_ue_offered_rate(self, imsi: str, mbps: float) -> None:
        if self.cell.is_active(imsi):
            self.cell.set_offered_rate(imsi, mbps)

    def context_for(self, imsi: str) -> Optional[RanUeContext]:
        return self._by_imsi.get(imsi)

    # -- internals -------------------------------------------------------------------

    def _send_uplink(self, context: RanUeContext, message: Any) -> None:
        """The first uplink is an initial message; later ones carry the
        core's UE id, learned from its first downlink."""
        if context.core_ue_id is None:
            wrapped = self.initial_message(self.node_id, context.ran_ue_id,
                                           message)
        else:
            wrapped = self.uplink_transport(self.node_id, context.ran_ue_id,
                                            context.core_ue_id, message)
        self.sim.call_later(0.0, self._call_core, "uplink", wrapped)

    def _call_core(self, method: str, request: Any) -> Event:
        """Control-plane call to the core.  The channel is read here, when
        the call is made: a subclass may replace it (a core failover) after
        a deferred send was scheduled."""
        return self._channel.call(self.core_service, method, request,
                                  CORE_DEADLINE)

    def _deliver(self, ran_ue_id: int, core_ue_id: int,
                 nas: Any) -> Dict[str, bool]:
        """Downlink NAS for a UE: learn the core's id for it, deliver the
        message over the air."""
        context = self._by_ran_ue_id.get(ran_ue_id)
        if context is None:
            return {"delivered": False}
        context.core_ue_id = core_ue_id
        self.stats["downlink_nas"] += 1
        self.sim.call_later(RADIO_DELAY, context.ue.deliver_nas, nas)
        return {"delivered": True}

    def _setup_bearer(self, ran_ue_id: int, core_ue_id: int, agw_teid: int,
                      agw_address: str, nas: Any) -> Optional[RanUeContext]:
        """The core set up a UE's bearer: anchor its tunnel here (a RAN-side
        TEID, kept across repeated setups) and deliver the piggybacked NAS.
        None when the UE has no context here."""
        context = self._by_ran_ue_id.get(ran_ue_id)
        if context is None:
            return None
        self.stats["bearer_setups"] += 1
        context.core_ue_id = core_ue_id
        context.agw_teid = agw_teid
        context.agw_address = agw_address
        if context.ran_teid is None:
            context.ran_teid = self._teids.allocate()
        if nas is not None:
            self.sim.call_later(RADIO_DELAY, context.ue.deliver_nas, nas)
        return context
