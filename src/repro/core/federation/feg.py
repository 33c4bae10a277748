"""Federation Gateway (FeG): Magma's adapter to external MNO cores (§3.6).

Exactly as the AGW terminates access-specific protocols from the radio
network, the FeG terminates the 3GPP-defined *core-side* interfaces (S6a,
Gx, Gy) toward a partner MNO, exposing a simple internal RPC service that
AGWs call.  The FeG is a centralized, on-path element - the deliberate
single point of interconnection MNOs require - which is why its capacity
matters for scaling (§4.3.2).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...net.rpc import RpcChannel, RpcError, RpcServer
from ...net.simnet import Network
from ...sim.cpu import CpuModel
from ...sim.kernel import Simulator

FEG_SERVICE = "feg"
FEG_CORES = 16.0               # one "heavy" orchestrator VM
REQUEST_CPU_COST = 0.001       # core-seconds per AGW request
MNO_DEADLINE = 10.0


class FederationGateway:
    """The FeG service, hosted at a network node (usually the orchestrator)."""

    def __init__(self, sim: Simulator, network: Network, node: str,
                 mno_node: str, server: Optional[RpcServer] = None):
        self.sim = sim
        self.network = network
        self.node = node
        self.mno_node = mno_node
        network.add_node(node)
        self.cpu = CpuModel(sim, cores=FEG_CORES, name=f"feg-{node}")
        self.server = server or RpcServer(sim, network, node)
        self._mno = RpcChannel(sim, network, node, mno_node)
        self.server.register(FEG_SERVICE, "get_auth_vector",
                             self._on_get_auth_vector)
        self.server.register(FEG_SERVICE, "get_policy", self._on_get_policy)
        self.server.register("ocs", "request_quota", self._on_request_quota)
        self.server.register("ocs", "report_usage", self._on_report_usage)
        self.stats = {"auth_requests": 0, "policy_requests": 0,
                      "quota_requests": 0, "mno_errors": 0}

    # -- handlers (AGW-facing) -----------------------------------------------------

    def _on_get_auth_vector(self, request: Dict[str, Any]):
        self.stats["auth_requests"] += 1

        def proc(sim):
            yield self.cpu.submit("feg", REQUEST_CPU_COST)
            try:
                vector = yield self._mno.call(
                    "s6a", "authentication_information", request,
                    deadline=MNO_DEADLINE)
            except RpcError as exc:
                self.stats["mno_errors"] += 1
                if exc.code == RpcError.NOT_FOUND:
                    return None
                raise
            return vector

        return proc(self.sim)

    def _on_get_policy(self, request: Dict[str, Any]):
        self.stats["policy_requests"] += 1

        def proc(sim):
            yield self.cpu.submit("feg", REQUEST_CPU_COST)
            try:
                response = yield self._mno.call("gx", "ccr_initial", request,
                                                deadline=MNO_DEADLINE)
            except RpcError as exc:
                self.stats["mno_errors"] += 1
                if exc.code == RpcError.NOT_FOUND:
                    return None
                raise
            return response

        return proc(self.sim)

    def _on_request_quota(self, request: Dict[str, Any]):
        """Gy proxy: AGWs use the standard OCS client interface."""
        self.stats["quota_requests"] += 1

        def proc(sim):
            yield self.cpu.submit("feg", REQUEST_CPU_COST)
            grant = yield self._mno.call("gy", "request_quota", request,
                                         deadline=MNO_DEADLINE)
            return grant

        return proc(self.sim)

    def _on_report_usage(self, request: Dict[str, Any]):
        def proc(sim):
            yield self.cpu.submit("feg", REQUEST_CPU_COST)
            result = yield self._mno.call("gy", "report_usage", request,
                                          deadline=MNO_DEADLINE)
            return result

        return proc(self.sim)
