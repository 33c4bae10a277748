"""CRUD-style state synchronization (the 3GPP model Magma replaces).

§3.4's worked example: a CRUD interface communicates *deltas* ("add
session Z"); if a message is lost or a component restarts mid-stream, the
receiver silently falls out of sync with the sender and stays there.  The
desired-state model sends the entire intended state, so one successful
message re-converges the replica.

Both synchronizers below push the same intended state over the same lossy
transport; the ablation (``repro.experiments.ablation_state_sync``)
measures divergence.
"""

from __future__ import annotations

from typing import Any, Dict

from ..net.simnet import Network
from ..net.transport import DatagramSocket
from ..sim.kernel import Simulator

#: The replica listens here; each sender binds its own port beside it.
REPLICA_PORT = 7000
CRUD_SENDER_PORT = 7001
DESIRED_SENDER_PORT = 7002


class CrudReplica:
    """The receiver side: applies whatever operations arrive."""

    def __init__(self, network: Network, node: str):
        self.state: Dict[str, Any] = {}
        self.applied_ops = 0
        self._socket = DatagramSocket(network, node, REPLICA_PORT,
                                      self._on_message)

    def _on_message(self, payload: Any, src: str, port: int) -> None:
        kind = payload[0]
        if kind == "create" or kind == "update":
            _, key, value = payload
            self.state[key] = value
            self.applied_ops += 1
        elif kind == "delete":
            _, key = payload
            self.state.pop(key, None)
            self.applied_ops += 1
        elif kind == "full_state":
            _, state = payload
            self.state = dict(state)
            self.applied_ops += 1

    def restart(self) -> None:
        """Process restart: in-memory replica state is lost."""
        self.state = {}


class CrudSynchronizer:
    """Sender that communicates each change as a delta (no reconciliation)."""

    def __init__(self, sim: Simulator, network: Network, node: str,
                 peer: str):
        self.sim = sim
        self.intended: Dict[str, Any] = {}
        self.ops_sent = 0
        self._socket = DatagramSocket(network, node, CRUD_SENDER_PORT)
        self.peer = peer

    def create(self, key: str, value: Any) -> None:
        self.intended[key] = value
        self.ops_sent += 1
        self._socket.send(self.peer, REPLICA_PORT, ("create", key, value))

    def update(self, key: str, value: Any) -> None:
        self.intended[key] = value
        self.ops_sent += 1
        self._socket.send(self.peer, REPLICA_PORT, ("update", key, value))

    def delete(self, key: str) -> None:
        self.intended.pop(key, None)
        self.ops_sent += 1
        self._socket.send(self.peer, REPLICA_PORT, ("delete", key))

    def divergence(self, replica: CrudReplica) -> int:
        """Number of keys that differ between intent and replica."""
        return _divergence(self.intended, replica.state)


class DesiredStateSynchronizer:
    """Sender that periodically pushes the entire intended state (§3.4)."""

    def __init__(self, sim: Simulator, network: Network, node: str,
                 peer: str, interval: float = 5.0):
        self.sim = sim
        self.intended: Dict[str, Any] = {}
        self.pushes = 0
        self.interval = interval
        self._socket = DatagramSocket(network, node, DESIRED_SENDER_PORT)
        self.peer = peer
        self._running = False

    def create(self, key: str, value: Any) -> None:
        self.intended[key] = value

    def update(self, key: str, value: Any) -> None:
        self.intended[key] = value

    def delete(self, key: str) -> None:
        self.intended.pop(key, None)

    def push_now(self) -> None:
        self.pushes += 1
        self._socket.send(self.peer, REPLICA_PORT,
                          ("full_state", dict(self.intended)),
                          size_bits=8_000 + 512 * len(self.intended))

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.spawn(self._loop(), name="desired-state-push")

    def stop(self) -> None:
        self._running = False

    def _loop(self):
        while self._running:
            yield self.sim.timeout(self.interval)
            if self._running:
                self.push_now()

    def divergence(self, replica: CrudReplica) -> int:
        return _divergence(self.intended, replica.state)


def _divergence(intended: Dict[str, Any], actual: Dict[str, Any]) -> int:
    keys = set(intended) | set(actual)
    return sum(1 for key in keys
               if intended.get(key) != actual.get(key))
