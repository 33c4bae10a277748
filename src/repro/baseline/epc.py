"""Baseline: a traditional monolithic EPC across the backhaul.

This is the architecture Magma defines itself against (§2, §3):

- **Centralized**: one core serves every cell site; eNodeBs reach it over
  whatever backhaul exists (satellite, microwave).  The S1AP dialogue and -
  critically - GTP run over that backhaul.
- **Large fault domain**: the core's failure takes down every site (§3.3's
  contrast with per-AGW fault domains).
- **GTP path management over backhaul**: the SGW keeps GTP-C echo monitors
  toward every eNodeB; a run of lost echoes (common on satellite links)
  declares path failure and tears down *all* sessions behind that eNodeB.
  Fragile UEs then wedge until power-cycled - the §3.1 failure mode Magma
  avoids by terminating GTP at the cell site.

The EPC reuses the same eNodeB/UE models; only the core differs, which is
the honest apples-to-apples comparison for the ablations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.agw.mobilityd import Mobilityd
from ..core.agw.subscriberdb import SubscriberDb, SubscriberProfile
from ..lte import nas, s1ap
from ..lte.enodeb import ENB_S1AP_SERVICE
from ..lte.gtp import GtpcEndpoint
from ..net.rpc import RpcChannel, RpcError, RpcServer
from ..net.simnet import Network
from ..sim.cpu import CpuModel
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry


@dataclass
class EpcConfig:
    cores: float = 32.0             # a well-provisioned central core
    attach_cpu_cost: float = 0.05
    ip_block: str = "10.200.0.0/16"
    gtp_echo_interval: float = 10.0
    gtp_t3: float = 3.0
    gtp_n3: int = 3
    rpc_deadline: float = 10.0


@dataclass
class EpcUeContext:
    mme_ue_id: int
    imsi: str
    enb_id: str
    enb_ue_id: int
    state: str = "wait-auth"
    xres: bytes = b""
    ue_ip: Optional[str] = None


class MonolithicEpc:
    """MME + HSS + SGW + PGW in one central box."""

    def __init__(self, sim: Simulator, network: Network, node: str = "epc",
                 config: Optional[EpcConfig] = None,
                 rng: Optional[RngRegistry] = None):
        self.sim = sim
        self.network = network
        self.node = node
        self.config = config or EpcConfig()
        self.rng = rng or RngRegistry(0)
        network.add_node(node)
        self.cpu = CpuModel(sim, cores=self.config.cores, name=node)
        self.hss = SubscriberDb()
        self.mobilityd = Mobilityd(self.config.ip_block)
        self.server = RpcServer(sim, network, node)
        self.server.register(s1ap.S1AP_SERVICE, "setup", self._on_setup)
        self.server.register(s1ap.S1AP_SERVICE, "uplink", self._on_uplink)
        self.gtpc = GtpcEndpoint(sim, network, node, t3=self.config.gtp_t3,
                                 n3=self.config.gtp_n3)
        self.gtpc.set_path_failure_callback(self._on_gtp_path_failure)
        self._channels: Dict[str, RpcChannel] = {}
        self._ue_ids = itertools.count(1)
        self._contexts: Dict[int, EpcUeContext] = {}
        self._by_imsi: Dict[str, EpcUeContext] = {}
        self.crashed = False
        self.stats = {"attach_requests": 0, "attach_accepted": 0,
                      "attach_rejected": 0, "sessions": 0,
                      "gtp_path_failures": 0, "sessions_torn_down": 0}

    # -- provisioning ------------------------------------------------------------

    def provision(self, profile: SubscriberProfile) -> None:
        # The baseline EPC *is* the CRUD-style monolith the paper argues
        # against; its HSS is provisioned directly by design.
        self.hss.upsert(profile)  # reprolint: disable=desired-state-sync

    def crash(self) -> None:
        """The big fault domain: everything behind this core goes dark."""
        self.crashed = True
        self.network.set_node_up(self.node, False)

    def recover(self) -> None:
        self.crashed = False
        self.network.set_node_up(self.node, True)
        # Central state is assumed replicated; sessions survive in this
        # model (the *reachability* outage is the baseline's problem).

    # -- S1AP handlers ------------------------------------------------------------

    def _on_setup(self, request: s1ap.S1SetupRequest) -> s1ap.S1SetupResponse:
        self._channel_for(request.enb_id)
        # GTP-U path to this eNodeB crosses the backhaul: monitor it.
        self.gtpc.start_path_monitor(request.enb_id,
                                     interval=self.config.gtp_echo_interval)
        return s1ap.S1SetupResponse(mme_name=self.node,
                                    served_plmn=request.tai.plmn,
                                    accepted=True)

    def _on_uplink(self, message: Any) -> Dict[str, bool]:
        if isinstance(message, s1ap.InitialUeMessage):
            if isinstance(message.nas, nas.AttachRequest):
                self.sim.spawn(self._attach(message),
                               name=f"epc-attach:{message.nas.imsi}")
            return {"accepted": True}
        if isinstance(message, s1ap.UplinkNasTransport):
            context = self._contexts.get(message.mme_ue_id)
            if context is not None:
                self._dispatch(context, message.nas)
            return {"accepted": True}
        return {"accepted": False}

    def _dispatch(self, context: EpcUeContext, message: Any) -> None:
        if isinstance(message, nas.AuthenticationResponse):
            if message.res == context.xres:
                context.state = "wait-smc"
                self._downlink(context, nas.SecurityModeCommand(
                    imsi=context.imsi))
            else:
                self.stats["attach_rejected"] += 1
                self._downlink(context, nas.AuthenticationReject(
                    imsi=context.imsi))
                self._drop(context)
        elif isinstance(message, nas.SecurityModeComplete):
            self.sim.spawn(self._setup_session(context),
                           name=f"epc-session:{context.imsi}")
        elif isinstance(message, nas.AttachComplete):
            context.state = "registered"
            self.stats["attach_accepted"] += 1
        elif isinstance(message, nas.DetachRequest):
            self._teardown(context, cause="detach")

    # -- procedures ---------------------------------------------------------------------

    def _attach(self, message: s1ap.InitialUeMessage):
        self.stats["attach_requests"] += 1
        yield self.cpu.submit("cp", self.config.attach_cpu_cost)
        request: nas.AttachRequest = message.nas
        imsi = request.imsi
        profile = self.hss.get(imsi)
        ue_ref_channel = self._channel_for(message.enb_id)
        if profile is None or profile.k is None:
            self.stats["attach_rejected"] += 1
            self._send(ue_ref_channel, "downlink_nas",
                       s1ap.DownlinkNasTransport(
                           enb_ue_id=message.enb_ue_id, mme_ue_id=0,
                           nas=nas.AttachReject(imsi=imsi,
                                                cause="unknown subscriber")))
            return
        rand = self.rng.stream(f"epc.rand.{self.node}").randbytes(16)
        vector = self.hss.generate_auth_vector(imsi, rand)
        context = EpcUeContext(mme_ue_id=next(self._ue_ids), imsi=imsi,
                               enb_id=message.enb_id,
                               enb_ue_id=message.enb_ue_id,
                               xres=vector.xres)
        self._contexts[context.mme_ue_id] = context
        self._by_imsi[imsi] = context
        self._downlink(context, nas.AuthenticationRequest(
            imsi=imsi, rand=vector.rand, autn=vector.autn))

    def _setup_session(self, context: EpcUeContext):
        yield self.cpu.submit("cp", self.config.attach_cpu_cost)
        context.ue_ip = self.mobilityd.allocate(context.imsi)
        self.stats["sessions"] += 1
        accept = nas.AttachAccept(imsi=context.imsi, ue_ip=context.ue_ip,
                                  guti=f"{self.node}-guti-{context.mme_ue_id}")
        channel = self._channel_for(context.enb_id)
        request = s1ap.InitialContextSetupRequest(
            enb_ue_id=context.enb_ue_id, mme_ue_id=context.mme_ue_id,
            ue_agg_max_bitrate_mbps=1e9, agw_teid=context.mme_ue_id,
            agw_address=self.node, nas=accept)
        try:
            yield channel.call(ENB_S1AP_SERVICE, "initial_context_setup",
                               request, deadline=self.config.rpc_deadline)
        except RpcError:
            pass

    # -- GTP path failure: the baseline's defining weakness -----------------------------

    def _on_gtp_path_failure(self, enb_id: str) -> None:
        """Tear down every session behind the failed path (3GPP behaviour)."""
        self.stats["gtp_path_failures"] += 1
        for context in list(self._contexts.values()):
            if context.enb_id == enb_id and context.state == "registered":
                self.stats["sessions_torn_down"] += 1
                self._teardown(context, cause="gtp path failure")

    def restart_path_monitor(self, enb_id: str) -> None:
        """Backhaul repaired: resume monitoring (operator action)."""
        self.gtpc.start_path_monitor(enb_id,
                                     interval=self.config.gtp_echo_interval)

    def _teardown(self, context: EpcUeContext, cause: str) -> None:
        self.mobilityd.release(context.imsi)
        channel = self._channel_for(context.enb_id)
        self._send(channel, "ue_context_release",
                   s1ap.UeContextReleaseCommand(
                       enb_ue_id=context.enb_ue_id,
                       mme_ue_id=context.mme_ue_id, cause=cause))
        self._drop(context)

    # -- plumbing --------------------------------------------------------------------------

    def _downlink(self, context: EpcUeContext, message: Any) -> None:
        channel = self._channel_for(context.enb_id)
        self._send(channel, "downlink_nas", s1ap.DownlinkNasTransport(
            enb_ue_id=context.enb_ue_id, mme_ue_id=context.mme_ue_id,
            nas=message))

    def _send(self, channel: RpcChannel, method: str, payload: Any) -> None:
        self.sim.call_later(0.0, channel.call, ENB_S1AP_SERVICE, method,
                            payload, self.config.rpc_deadline)

    def _channel_for(self, enb_id: str) -> RpcChannel:
        channel = self._channels.get(enb_id)
        if channel is None:
            channel = RpcChannel(self.sim, self.network, self.node, enb_id)
            self._channels[enb_id] = channel
        return channel

    def _drop(self, context: EpcUeContext) -> None:
        self._contexts.pop(context.mme_ue_id, None)
        if self._by_imsi.get(context.imsi) is context:
            self._by_imsi.pop(context.imsi, None)

    def session_count(self) -> int:
        return sum(1 for c in self._contexts.values()
                   if c.state == "registered")

    def context_for(self, imsi: str) -> Optional[EpcUeContext]:
        return self._by_imsi.get(imsi)
