"""CRUD-style state synchronization: §3.4's negative control.

This is the 3GPP model Magma replaces.  A CRUD interface communicates
*deltas* ("add session Z").  If a message is lost, or the receiver
restarts mid-stream, the receiver silently falls out of sync with the
sender and stays there: nothing ever re-sends what it missed.  The replica
is volatile, so a restart leaves it empty.

Magma's side of the comparison is not in this module.  It is the AGW's
own check-in: northbound writes land in the orchestrator's config store,
and magmad reconciles its local copy against it by digest walk.  The
ablation (``repro.experiments.ablation_state_sync``) drives one stream of
changes through both and measures divergence.
"""

from __future__ import annotations

from typing import Any, Dict

from ..net.simnet import Network
from ..net.transport import DatagramSocket

#: The replica listens here; the sender binds the port beside it.
REPLICA_PORT = 7000
CRUD_SENDER_PORT = 7001


class CrudReplica:
    """The receiver side: applies whatever operations arrive."""

    def __init__(self, network: Network, node: str):
        self.state: Dict[str, Any] = {}
        self._socket = DatagramSocket(network, node, REPLICA_PORT,
                                      self._on_message)

    def _on_message(self, payload: Any, src: str, port: int) -> None:
        if payload[0] == "put":
            _, key, value = payload
            self.state[key] = value
        else:
            _, key = payload
            self.state.pop(key, None)

    def restart(self) -> None:
        """Process restart: in-memory replica state is lost."""
        self.state = {}


class CrudSynchronizer:
    """Sender that communicates each change as a delta (no reconciliation)."""

    def __init__(self, network: Network, node: str, peer: str):
        self.intended: Dict[str, Any] = {}
        self._socket = DatagramSocket(network, node, CRUD_SENDER_PORT)
        self.peer = peer

    def put(self, key: str, value: Any) -> None:
        """Create or update ``key``."""
        self.intended[key] = value
        self._socket.send(self.peer, REPLICA_PORT, ("put", key, value))

    def delete(self, key: str) -> None:
        self.intended.pop(key, None)
        self._socket.send(self.peer, REPLICA_PORT, ("delete", key))


def divergent_keys(intended: Dict[str, Any], actual: Dict[str, Any]) -> int:
    """Number of keys whose value differs between intent and a replica."""
    keys = set(intended) | set(actual)
    return sum(1 for key in keys
               if intended.get(key) != actual.get(key))
