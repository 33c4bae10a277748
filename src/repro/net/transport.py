"""Datagram transport over the simulated network.

:class:`DatagramSocket` is fire-and-forget and loses whatever the links
lose.  This is what raw 3GPP GTP-C runs over, and why GTP "struggles to
operate over lower quality or congested backhaul links" (§3.1).  The
reliable side of that contrast is :class:`~repro.net.rpc.RpcChannel`,
which retransmits within each call's deadline as gRPC over TCP does.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .simnet import Datagram, Network


class DatagramSocket:
    """An unreliable, unordered message socket bound to (node, port)."""

    def __init__(self, network: Network, node: str, port: int,
                 on_message: Optional[Callable[[Any, str, int], None]] = None):
        self.network = network
        self.node = node
        self.port = port
        self._on_message = on_message
        network.bind(node, port, self._handle)

    def send(self, dst_node: str, dst_port: int, payload: Any,
             size_bits: int = 8_000) -> None:
        self.network.send(Datagram(self.node, dst_node, dst_port, payload, size_bits))

    def close(self) -> None:
        self.network.unbind(self.node, self.port)

    def _handle(self, dgram: Datagram) -> None:
        if self._on_message is not None:
            self._on_message(dgram.payload, dgram.src, dgram.port)
