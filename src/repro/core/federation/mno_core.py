"""Partner MNO core model (the federated network of §3.6).

A traditional mobile operator's core, as seen from Magma's Federation
Gateway: an HSS answering S6a authentication-information requests, a PCRF
answering Gx credit-control/policy requests, an OCS answering Gy quota
requests, and a P-GW terminating home-routed user-plane traffic.

This is deliberately a *model* of the 3GPP reference points, not a full
EPC: the FeG is the only component that talks to it, over a single point
of interconnection (the paper: "traditional MNOs prefer a single point of
interconnection between their sensitive core network and extension
networks").
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...lte import auth
from ...net.rpc import RpcError, RpcServer
from ...net.simnet import Network
from ...record import record
from ...sim.kernel import Simulator
from ...sim.rng import RngRegistry
from ..policy.ocs import OnlineChargingSystem
from ..policy.rules import PolicyRule, unlimited


@record
class MnoSubscriber:
    imsi: str
    k: bytes
    opc: bytes
    policy: PolicyRule
    sqn: int = 0


class PartnerMnoCore:
    """The incumbent operator's core network, reachable at one node."""

    def __init__(self, sim: Simulator, network: Network, node: str = "mno",
                 rng: Optional[RngRegistry] = None,
                 ocs: Optional[OnlineChargingSystem] = None):
        self.sim = sim
        self.network = network
        self.node = node
        self.rng = rng or RngRegistry(0)
        self.ocs = ocs
        self._subscribers: Dict[str, MnoSubscriber] = {}
        # P-GW side: usage accounting for home-routed traffic.
        self.pgw_usage_bytes: Dict[str, int] = {}
        network.add_node(node)
        self.server = RpcServer(sim, network, node)
        self.server.register("s6a", "authentication_information",
                             self._on_auth_info)
        self.server.register("gx", "ccr_initial", self._on_ccr_initial)
        self.server.register("gy", "request_quota", self._on_gy_quota)
        self.server.register("gy", "report_usage", self._on_gy_report)
        self.stats = {"s6a_requests": 0, "s6a_unknown": 0, "gx_requests": 0,
                      "gy_requests": 0}

    # -- provisioning -------------------------------------------------------------

    def provision(self, imsi: str, k: bytes, opc: bytes,
                  policy: Optional[PolicyRule] = None) -> None:
        self._subscribers[imsi] = MnoSubscriber(
            imsi=imsi, k=k, opc=opc,
            policy=policy or unlimited(f"mno-{imsi}"))
        if self.ocs is not None:
            try:
                self.ocs.account(imsi)
            except Exception:  # noqa: BLE001 - provision a default balance
                self.ocs.provision(imsi, balance_bytes=10_000_000_000)

    def subscriber_count(self) -> int:
        return len(self._subscribers)

    # -- 3GPP reference-point handlers ------------------------------------------------

    def _on_auth_info(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """S6a AIR: return an authentication vector (never the key itself)."""
        self.stats["s6a_requests"] += 1
        subscriber = self._subscribers.get(request["imsi"])
        if subscriber is None:
            self.stats["s6a_unknown"] += 1
            raise RpcError(RpcError.NOT_FOUND, "unknown IMSI")
        subscriber.sqn += 1
        rand = self.rng.stream(f"mno.rand.{self.node}").randbytes(16)
        vector = auth.generate_vector(subscriber.k, subscriber.opc,
                                      subscriber.sqn, rand)
        return {"rand": vector.rand, "xres": vector.xres,
                "autn": vector.autn, "kasme": vector.kasme}

    def _on_ccr_initial(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Gx CCR-I: return the policy to install for this subscriber."""
        self.stats["gx_requests"] += 1
        subscriber = self._subscribers.get(request["imsi"])
        if subscriber is None:
            raise RpcError(RpcError.NOT_FOUND, "unknown IMSI")
        return {"policy": subscriber.policy}

    def _on_gy_quota(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        self.stats["gy_requests"] += 1
        if self.ocs is None:
            raise RpcError(RpcError.FAILED_PRECONDITION, "no OCS")
        grant = self.ocs.request_quota(request["imsi"], request["agw_id"],
                                       request.get("requested_bytes"))
        if grant is None:
            return None
        return {"grant_id": grant.grant_id,
                "granted_bytes": grant.granted_bytes}

    def _on_gy_report(self, request: Dict[str, Any]) -> bool:
        if self.ocs is None:
            raise RpcError(RpcError.FAILED_PRECONDITION, "no OCS")
        self.ocs.report_usage(request["grant_id"], request["used_bytes"],
                              final=request.get("final", False))
        return True

    # -- P-GW user plane (home-routed traffic lands here) --------------------------------

    def pgw_record_usage(self, imsi: str, used_bytes: int) -> None:
        self.pgw_usage_bytes[imsi] = \
            self.pgw_usage_bytes.get(imsi, 0) + used_bytes

    def pgw_total_bytes(self) -> int:
        return sum(self.pgw_usage_bytes.values())
