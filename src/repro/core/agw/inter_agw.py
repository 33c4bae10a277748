"""Inter-AGW mobility: the paper's stated future work (§3.2, §6).

"Seamless mobility *between* AGWs would require communicating some
control-plane state from one AGW to another during hand-offs ... we expect
to add it in the future."

This module implements that hand-off as an S10-style AGW-to-AGW interface:

1. The target AGW fetches the UE's session context from the source over
   RPC (``s10/context_transfer``).  The source reports final usage to the
   OCS, writes its CDR, and releases the session.
2. The transferred *policy enforcement state* (bytes against usage caps,
   interval position) is staged at the target, and the UE re-attaches
   there; ``sessiond`` seeds the new session's enforcement from the staged
   context instead of starting fresh.

The UE's IP address changes (each AGW owns its own block - true IP
preservation would need the network virtualization the paper also defers),
but the *accounting* state moves with the user.  A side effect the paper
would appreciate: the §3.4 double-spend trick stops working, because the
cap/usage state follows the subscriber across gateways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ...net.rpc import RpcChannel, RpcError, RpcServer
from .context import RPC_DEADLINE, AgwContext
from .sessiond import Sessiond

S10_SERVICE = "s10"


@dataclass(frozen=True)
class TransferredContext:
    """The control-plane state that moves between AGWs during hand-off."""

    imsi: str
    policy_id: str
    total_bytes: int
    interval_bytes: int
    interval_start: float
    source_agw: str
    bytes_dl: int
    bytes_ul: int


class InterAgwMobility:
    """S10-style context transfer endpoint of one AGW."""

    def __init__(self, context: AgwContext, server: RpcServer,
                 sessiond: Sessiond):
        self.context = context
        self.sessiond = sessiond
        self._channels: Dict[str, RpcChannel] = {}
        self.stats = {"transfers_out": 0, "transfers_in": 0,
                      "transfer_misses": 0}
        server.register(S10_SERVICE, "context_transfer",
                        self._on_context_transfer)

    # -- source side ---------------------------------------------------------------

    def _on_context_transfer(self, request: Dict[str, Any]
                             ) -> TransferredContext:
        imsi = request["imsi"]
        session = self.sessiond.session(imsi)
        if session is None:
            self.stats["transfer_misses"] += 1
            raise RpcError(RpcError.NOT_FOUND, f"no session for {imsi}")
        with self.context.tracer.child("s10.context_transfer_out",
                                       component="inter_agw",
                                       node=self.context.node):
            enforcement = session.enforcement
            transferred = TransferredContext(
                imsi=imsi, policy_id=session.policy_id,
                total_bytes=enforcement.total_bytes,
                interval_bytes=enforcement.interval_bytes,
                interval_start=enforcement.interval_start,
                source_agw=self.context.node,
                bytes_dl=session.bytes_dl, bytes_ul=session.bytes_ul)
            # Final usage is reported and the session released at the
            # source; unspent OCS quota is returned uncharged (no double
            # spend).
            self.sessiond.terminate_session(imsi, reason="handover-out")
            self.stats["transfers_out"] += 1
        return transferred

    # -- target side ------------------------------------------------------------------

    def fetch_context(self, imsi: str, source_agw: str):
        """Generator: pull the UE's context from ``source_agw`` and stage
        it for the upcoming attach.  Returns the context or None."""
        channel = self._channels.get(source_agw)
        if channel is None:
            channel = RpcChannel(self.context.sim, self.context.network,
                                 self.context.node, source_agw)
            self._channels[source_agw] = channel
        span = self.context.tracer.begin("handover.s10_fetch",
                                         component="inter_agw",
                                         node=self.context.node,
                                         tags={"imsi": imsi,
                                               "source": source_agw})
        try:
            with span.active():
                transferred = yield channel.call(
                    S10_SERVICE, "context_transfer", {"imsi": imsi},
                    deadline=RPC_DEADLINE)
        except RpcError:
            span.end("error")
            return None
        span.end()
        self.sessiond.stage_transfer(transferred)
        self.stats["transfers_in"] += 1
        return transferred
