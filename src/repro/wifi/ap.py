"""WiFi access point and client models.

The AP associates clients locally (best-effort, unlicensed spectrum:
contention shrinks per-client throughput as load grows) and authenticates
them against the AGW's RADIUS frontend.  Compare with
:class:`~repro.lte.enodeb.Enodeb`: same shape, different protocol - which
is exactly the paper's point about abstracting the radio technology.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from ..net.rpc import RpcChannel, RpcError
from ..net.simnet import Network
from ..obs.tracing import NOOP_SPAN
from ..record import record
from ..sim.fairshare import max_min_share
from ..sim.kernel import Event, Simulator
from .radius import (
    AccessAccept,
    AccessReject,
    AccountingRequest,
    RADIUS_SERVICE,
)

AP_CAPACITY_MBPS = 50.0   # contended unlicensed spectrum
DEFAULT_MAX_CLIENTS = 64
RADIUS_DEADLINE = 5.0


@record
class WifiClientState:
    username: str
    mac: str
    ip: Optional[str] = None
    session_id: Optional[str] = None
    offered_mbps: float = 0.0
    connected: bool = False


class WifiAp:
    """One access point, backhauled to an AGW."""

    def __init__(self, sim: Simulator, network: Network, ap_id: str,
                 agw_node: str, max_clients: int = DEFAULT_MAX_CLIENTS):
        if max_clients < 1:
            raise ValueError("max_clients must be positive")
        self.sim = sim
        self.network = network
        self.ap_id = ap_id
        self.agw_node = agw_node
        self.max_clients = max_clients
        self._clients: Dict[str, WifiClientState] = {}
        self._mac_counter = itertools.count(1)
        network.add_node(ap_id)
        self._channel = RpcChannel(sim, network, ap_id, agw_node)
        self.stats = {"associations": 0, "rejected_full": 0,
                      "auth_ok": 0, "auth_failed": 0, "disconnects": 0}

    # -- client lifecycle ---------------------------------------------------------

    def connect(self, username: str, secret: str) -> Event:
        """Associate + authenticate a client.

        The returned event succeeds with the client's
        :class:`WifiClientState` (``connected`` tells success) - mirroring
        the LTE UE's AttachOutcome convention.
        """
        done = self.sim.event(f"wifi.{self.ap_id}.connect.{username}")
        if len(self._clients) >= self.max_clients:
            self.stats["rejected_full"] += 1
            done.succeed(WifiClientState(username=username, mac="",
                                         connected=False))
            return done
        mac = f"{self.ap_id}-mac-{next(self._mac_counter)}"
        state = WifiClientState(username=username, mac=mac)
        self._clients[username] = state
        self.stats["associations"] += 1

        def proc(sim):
            from . import eap
            from .radius import AccessRequest, EapStartRequest
            try:
                # Round 1: EAP identity -> challenge.
                challenge = yield self._channel.call(
                    RADIUS_SERVICE, "eap_start",
                    EapStartRequest(username=username, ap_id=self.ap_id,
                                    client_mac=mac),
                    deadline=RADIUS_DEADLINE)
                # Round 2: proof of the shared secret.
                request = AccessRequest(
                    username=username, ap_id=self.ap_id, client_mac=mac,
                    nonce=challenge.nonce,
                    eap_proof=eap.compute_proof(secret, challenge.nonce))
                response = yield self._channel.call(
                    RADIUS_SERVICE, "access_request", request,
                    deadline=RADIUS_DEADLINE)
            except RpcError:
                response = AccessReject(username=username, cause="timeout")
            if not isinstance(response, AccessAccept):
                self._clients.pop(username, None)
                self.stats["auth_failed"] += 1
            elif self._clients.get(username) is not state:
                # Disconnected while EAP was in flight: close the session
                # the AGW has just opened for it.
                self._stop_accounting(username, response.session_id)
            else:
                state.ip = response.framed_ip
                state.session_id = response.session_id
                state.connected = True
                self.stats["auth_ok"] += 1
            done.succeed(state)

        tracer = self.sim.tracer
        span = NOOP_SPAN if tracer is None else tracer.begin(
            "eap", component="ap", tags={"imsi": username})
        if span.recording:
            span.end_on(done, ok=lambda ev: ev.value.connected)
        self.sim.spawn(proc(self.sim), name=f"wifi-auth:{username}",
                       ctx=span.context)
        return done

    def disconnect(self, username: str) -> None:
        state = self._clients.pop(username, None)
        if state is None or not state.connected:
            return
        self.stats["disconnects"] += 1
        self._stop_accounting(username, state.session_id)

    def _stop_accounting(self, username: str, session_id: str) -> None:
        request = AccountingRequest(username=username, session_id=session_id,
                                    acct_type=AccountingRequest.ACCT_STOP)
        self.sim.call_later(0.0, self._channel.call, RADIUS_SERVICE,
                            "accounting", request, RADIUS_DEADLINE)

    # -- traffic ---------------------------------------------------------------------

    def set_offered_rate(self, username: str, mbps: float) -> None:
        state = self._clients.get(username)
        if state is None:
            raise KeyError(f"client {username!r} not associated")
        if mbps < 0:
            raise ValueError("offered rate must be >= 0")
        state.offered_mbps = mbps

    def allocate(self) -> Dict[str, float]:
        """Per-client radio throughput (contended, max-min fair)."""
        offered = {u: s.offered_mbps for u, s in self._clients.items()
                   if s.connected}
        return max_min_share(offered, AP_CAPACITY_MBPS)

    def client(self, username: str) -> Optional[WifiClientState]:
        return self._clients.get(username)
