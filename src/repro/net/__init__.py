"""Simulated network substrate: nodes/links, transports, RPC, backhaul."""

from . import backhaul
from .rpc import RpcChannel, RpcError, RpcServer, RPC_PORT
from .simnet import Datagram, Link, Network

__all__ = [
    "Datagram",
    "Link",
    "Network",
    "RpcChannel",
    "RpcError",
    "RpcServer",
    "RPC_PORT",
    "backhaul",
]
