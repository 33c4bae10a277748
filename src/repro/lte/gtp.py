"""GTP-C path management: the echo exchange (baseline architecture).

GTP-C runs over UDP with a fixed retry budget (3GPP TS 29.274: retransmit
after T3 seconds, at most N3 times, then declare failure) and keeps tunnel
paths alive with periodic echo requests.  This is the protocol the paper
singles out (§3.1) as "sensitive to loss and latency to the point that it
struggles to operate over lower quality or congested backhaul links".

Only the echo request/response is modelled: an endpoint answers an
``EchoRequest`` and silently drops any other request, as real GTP does an
unknown one.  In the *baseline* monolithic EPC the echo path crosses the
backhaul between the RAN site and the remote core, so a run of lost
echoes declares path failure and tears down every session on the path -
and fragile UEs never recover without a power cycle.  In Magma, GTP is
terminated inside the AGW at the cell site and never experiences
backhaul loss; this module is what the ablation in
``repro.experiments.ablation_gtp`` compares against.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

from ..net.simnet import Network
from ..net.transport import DatagramSocket
from ..record import record
from ..sim.kernel import Event, Simulator

GTPC_PORT = 2123
T3 = 3.0   # retransmission timer (seconds)
N3 = 3     # max retransmissions
DEFAULT_ECHO_INTERVAL = 60.0


class GtpTimeout(Exception):
    """A GTP-C request exhausted its N3 retransmissions."""


@record(frozen=True)
class EchoRequest:
    seq: int = 0


@record(frozen=True)
class EchoResponse:
    seq: int = 0


class GtpcEndpoint:
    """One GTP-C endpoint (e.g. an SGW toward its eNodeBs): sends
    requests with T3/N3 retransmission, answers echoes, monitors paths."""

    def __init__(self, sim: Simulator, network: Network, node: str):
        self.sim = sim
        self.network = network
        self.node = node
        self._seq = itertools.count(1)
        self._pending: Dict[int, Event] = {}
        # seq -> pending retransmission timer.  Revoked the moment the
        # response lands (or the request gives up): an un-cancelled T3 timer
        # rots for up to 3s per exchange and stretches run-until-drain.
        self._retry: Dict[int, Any] = {}
        self._path_monitors: Dict[str, bool] = {}  # peer -> active
        self._on_path_failure: Optional[Callable[[str], None]] = None
        self.stats = {"requests": 0, "responses": 0, "retransmits": 0,
                      "timeouts": 0, "echo_sent": 0, "echo_lost": 0,
                      "path_failures": 0}
        self._socket = DatagramSocket(network, node, GTPC_PORT,
                                      self._on_datagram)

    # -- request/response ---------------------------------------------------------

    def set_path_failure_callback(self, cb: Callable[[str], None]) -> None:
        self._on_path_failure = cb

    def send_request(self, peer: str, request: Any) -> Event:
        """Send with T3/N3 retransmission; event fails with GtpTimeout."""
        seq = next(self._seq)
        done = self.sim.event(f"gtpc.{self.node}.req{seq}")
        self._pending[seq] = done
        self.stats["requests"] += 1
        self._transmit(peer, seq, request, attempt=0)
        return done

    def _transmit(self, peer: str, seq: int, request: Any, attempt: int) -> None:
        if seq not in self._pending:
            self._retry.pop(seq, None)
            return
        if attempt > N3:
            self._retry.pop(seq, None)
            done = self._pending.pop(seq)
            self.stats["timeouts"] += 1
            if not done.triggered:
                done.fail(GtpTimeout(f"no response from {peer} after "
                                     f"{N3} retransmissions"))
            return
        if attempt > 0:
            self.stats["retransmits"] += 1
        self._socket.send(peer, GTPC_PORT, ("request", seq, request))
        self._retry[seq] = self.sim.schedule(T3, self._transmit, peer,
                                             seq, request, attempt + 1)

    # -- path management (echo) ----------------------------------------------------

    def start_path_monitor(self, peer: str,
                           interval: float = DEFAULT_ECHO_INTERVAL) -> None:
        """Send periodic echoes; declare path failure when one times out."""
        if self._path_monitors.get(peer):
            return
        self._path_monitors[peer] = True
        self.sim.spawn(self._echo_loop(peer, interval),
                       name=f"gtpc-echo:{self.node}->{peer}")

    def _echo_loop(self, peer: str, interval: float):
        while self._path_monitors.get(peer):
            yield self.sim.timeout(interval)
            if not self._path_monitors.get(peer):
                return
            self.stats["echo_sent"] += 1
            try:
                yield self.send_request(peer, EchoRequest())
            except GtpTimeout:
                self.stats["echo_lost"] += 1
                self.stats["path_failures"] += 1
                self._path_monitors[peer] = False
                if self._on_path_failure is not None:
                    self._on_path_failure(peer)
                return

    # -- receive path ------------------------------------------------------------------

    def _on_datagram(self, payload: Any, src: str, port: int) -> None:
        kind, seq, body = payload
        if kind == "request":
            # Anything but an echo is unknown here: silently dropped.
            if isinstance(body, EchoRequest):
                self._socket.send(src, GTPC_PORT,
                                  ("response", seq, EchoResponse(seq=seq)))
        elif kind == "response":
            done = self._pending.pop(seq, None)
            timer = self._retry.pop(seq, None)
            if timer is not None:
                timer.cancel()
            if done is not None and not done.triggered:
                self.stats["responses"] += 1
                done.succeed(body)

    def close(self) -> None:
        self._socket.close()
        self._path_monitors.clear()
        for timer in self._retry.values():
            timer.cancel()
        self._retry.clear()
