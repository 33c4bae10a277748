"""Baseline: a traditional monolithic EPC across the backhaul.

This is the architecture Magma defines itself against (§2, §3).  Its
access core *is* the AGW's - the same S1AP frontend, access management,
sessiond and data plane - so the ablations compare two things only:

- **Placement**: one core on a central node serves every cell site; the
  eNodeBs reach it over whatever backhaul exists (satellite, microwave),
  so the S1AP dialogue and - critically - GTP cross that backhaul.  Its
  crash takes down every site: one large fault domain (§3.3's contrast
  with per-AGW fault domains).
- **GTP path management over the backhaul**: the SGW keeps a GTP-C echo
  monitor toward every eNodeB that sets up with it; a run of lost echoes
  (common on satellite links) declares path failure and deregisters
  *every* UE behind that eNodeB, whatever stage its attach is at.
  Fragile UEs then wedge until power-cycled - the §3.1 failure mode
  Magma avoids by terminating GTP at the cell site.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..core.agw import (
    AccessContext,
    AccessGateway,
    AgwConfig,
    AgwHardwareProfile,
    SubscriberProfile,
)
from ..lte.gtp import GtpcEndpoint
from ..net.simnet import Network
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry

#: A well-provisioned central core: 32 cores, 0.1 core-s per attach.
CENTRAL_CORE = AgwHardwareProfile(
    name="central-core",
    cores=32,
    attach_cpu_cost=0.1,
    nas_message_cpu_cost=0.0005,
    up_cost_per_mbps=0.002,
)


class MonolithicEpc:
    """MME + HSS + SGW + PGW in one central box: the AGW's access core
    at the far end of the backhaul, plus GTP path management."""

    def __init__(self, sim: Simulator, network: Network, node: str = "epc",
                 rng: Optional[RngRegistry] = None,
                 gtp_echo_interval: float = 10.0):
        self.gtp_echo_interval = gtp_echo_interval
        self.agw = AccessGateway(
            sim, network, node,
            config=AgwConfig(hardware=CENTRAL_CORE, ip_block="10.200.0.0/16"),
            rng=rng)
        self.gtpc = GtpcEndpoint(sim, network, node)
        self.gtpc.set_path_failure_callback(self._on_gtp_path_failure)
        # The GTP-U path to an eNodeB that sets up here crosses the
        # backhaul: monitor it from the moment its S1 setup succeeds.
        self.agw.server.intercept(self.agw.s1ap.service, "setup",
                                  self._monitor_path)
        self.stats = {"gtp_path_failures": 0, "sessions_torn_down": 0}

    # -- the access core ---------------------------------------------------------

    def provision(self, profile: SubscriberProfile) -> None:
        # The baseline EPC *is* the CRUD-style monolith the paper argues
        # against; its HSS is provisioned directly by design.
        self.agw.subscriberdb.upsert(profile)  # reprolint: disable=desired-state-sync

    def crash(self) -> None:
        """The big fault domain: everything behind this core goes dark."""
        self.agw.crash()

    def recover(self) -> None:
        self.agw.recover()

    def session_count(self) -> int:
        return self.agw.sessiond.session_count()

    def context_for(self, imsi: str) -> Optional[AccessContext]:
        return self.agw.mme.context_for(imsi)

    # -- GTP path management: the baseline's defining weakness -------------------

    def _monitor_path(self, request: Any, setup: Callable) -> Any:
        response = setup(request)
        self.restart_path_monitor(request.enb_id)
        return response

    def restart_path_monitor(self, enb_id: str) -> None:
        """Monitor the path again (after S1 setup, or once an operator
        repaired the backhaul)."""
        self.gtpc.start_path_monitor(enb_id, interval=self.gtp_echo_interval)

    def _on_gtp_path_failure(self, enb_id: str) -> None:
        """Deregister every UE behind the failed path (3GPP behaviour)."""
        self.stats["gtp_path_failures"] += 1
        mme, sessiond = self.agw.mme, self.agw.sessiond
        for ue in list(mme.contexts.values()):
            if ue.frontend.location_of(ue.ue_ref) != enb_id:
                continue
            if sessiond.session(ue.imsi) is not None:
                self.stats["sessions_torn_down"] += 1
            mme.deregister(ue.imsi, "gtp path failure", ue=ue)
