"""Simulated network: nodes, links, and datagram delivery.

The control-plane fabric of the reproduction.  Nodes (AGWs, the orchestrator,
eNodeBs, the FeG, ...) are attached to a :class:`Network` and exchange
:class:`Datagram` objects over :class:`Link` objects with configurable
latency, loss, jitter, and bandwidth.

Data-plane *user traffic* is deliberately not modelled per-packet here (it is
fluid-modelled against the CPU and radio capacity models); this module
carries control messages, whose loss and delay behaviour is what the paper's
state-synchronization and GTP-termination arguments are about.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..record import record
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry


class Datagram:
    """An unreliable message in flight between two nodes."""

    __slots__ = ("src", "dst", "port", "payload", "size_bits")

    def __init__(self, src: str, dst: str, port: int, payload: Any,
                 size_bits: int = 8_000):  # 1 KB default control message
        self.src = src
        self.dst = dst
        self.port = port
        self.payload = payload
        self.size_bits = size_bits


@record
class Link:
    """A bidirectional link with latency/loss/jitter/bandwidth.

    ``loss`` is the per-traversal drop probability.  ``bandwidth_mbps`` of
    ``None`` means serialization delay is negligible.
    """

    latency: float = 0.001
    loss: float = 0.0
    jitter: float = 0.0
    bandwidth_mbps: Optional[float] = None
    name: str = "link"

    def __post_init__(self):
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {self.loss}")
        # Comparisons that NaN fails, so a NaN is refused too.
        if not (self.latency >= 0 and self.jitter >= 0):
            raise ValueError("latency and jitter must be >= 0")
        if self.bandwidth_mbps is not None and not self.bandwidth_mbps > 0:
            raise ValueError("bandwidth must be positive")


class _LinkState:
    """Per-direction mutable link state (serialization queue)."""

    __slots__ = ("link", "busy_until")

    def __init__(self, link: Link):
        self.link = link
        self.busy_until = 0.0


Handler = Callable[[Datagram], None]

#: A compiled route: one ``(next node, link state)`` pair per hop.
HopPlan = Tuple[Tuple[str, _LinkState], ...]


class Network:
    """A graph of named nodes connected by links, with BFS routing.

    Nodes can be marked down (crashed); datagrams to or through a down node
    are silently dropped, as are datagrams lost on a lossy link.
    """

    def __init__(self, sim: Simulator, rng: Optional[RngRegistry] = None):
        self.sim = sim
        self.rng = rng or RngRegistry(0)
        # A named stream is one object for its registry's life, so it is
        # looked up once here rather than on every send.
        self._loss_rng = self.rng.stream("network.loss")
        self._jitter_rng = self.rng.stream("network.jitter")
        self._handlers: Dict[Tuple[str, int], Handler] = {}
        self._adjacency: Dict[str, Dict[str, _LinkState]] = {}
        self._node_up: Dict[str, bool] = {}
        # (src, dst) -> hop plan, or None when dst is unreachable.
        self._route_cache: Dict[Tuple[str, str], Optional[HopPlan]] = {}
        self.stats = {"sent": 0, "delivered": 0, "dropped_loss": 0,
                      "dropped_down": 0, "dropped_unroutable": 0,
                      "dropped_no_handler": 0}

    # -- topology ------------------------------------------------------------

    def add_node(self, name: str) -> None:
        """Add ``name`` (up, with no links); a known node is left as is.

        The route cache is flushed only for a new node.  A known one
        changes no route, so binding a port on a node already in the
        network (every ``RpcChannel`` does) keeps the compiled routes.
        """
        if name in self._adjacency:
            return
        self._adjacency[name] = {}
        self._node_up[name] = True
        self._route_cache.clear()

    def connect(self, a: str, b: str, link: Optional[Link] = None) -> Link:
        """Connect two nodes (creating them if needed) with a link."""
        if a == b:
            raise ValueError("cannot connect a node to itself")
        link = link or Link()
        self.add_node(a)
        self.add_node(b)
        self._adjacency[a][b] = _LinkState(link)
        self._adjacency[b][a] = _LinkState(link)
        self._route_cache.clear()
        return link

    def set_node_up(self, name: str, up: bool) -> None:
        """Crash or recover a node; affects both endpoints and transit.

        Invalidates the route cache: cached paths through a newly-crashed
        transit node would black-hole traffic between healthy endpoints that
        still have a live alternate path, and paths computed while a node
        was down must be recomputed once it recovers.
        """
        if name not in self._adjacency:
            raise KeyError(f"unknown node {name!r}")
        if self._node_up.get(name) != up:
            self._route_cache.clear()
        self._node_up[name] = up

    # -- sockets ---------------------------------------------------------------

    def bind(self, node: str, port: int, handler: Handler) -> None:
        """Register a delivery handler at (node, port)."""
        self.add_node(node)
        key = (node, port)
        if key in self._handlers:
            raise ValueError(f"port {port} already bound on {node!r}")
        self._handlers[key] = handler

    def unbind(self, node: str, port: int) -> None:
        self._handlers.pop((node, port), None)

    # -- sending ---------------------------------------------------------------

    def send(self, dgram: Datagram) -> None:
        """Route and deliver ``dgram`` asynchronously (or drop it).

        Each hop, in path order: drop if the next node is down, draw the
        link's loss, add its latency and a jitter draw, then take its
        serialization slot.  ``Link`` fields are read here, on every send,
        so a link mutated after its route was compiled takes effect at
        once.
        """
        stats = self.stats
        stats["sent"] += 1
        src = dgram.src
        dst = dgram.dst
        node_up = self._node_up
        if src not in node_up or not node_up[src]:
            stats["dropped_down"] += 1
            return
        if src == dst:
            # Loopback: lossless and latency-free, an asynchronous handoff
            # to the local handler with no route, loss or jitter draw.
            self.sim.call_later(0.0, self._deliver, dgram)
            return
        try:
            plan = self._route_cache[src, dst]
        except KeyError:
            plan = self._compile_route(src, dst)
        if plan is None:
            stats["dropped_unroutable"] += 1
            return
        delay = 0.0
        for hop, state in plan:
            # Every node on a plan is known: plans are built from the
            # adjacency, and add_node registers both maps together.
            if not node_up[hop]:
                stats["dropped_down"] += 1
                return
            link = state.link
            loss = link.loss
            if loss > 0 and self._loss_rng.random() < loss:
                stats["dropped_loss"] += 1
                return
            delay += link.latency
            jitter = link.jitter
            if jitter > 0:
                delay += self._jitter_rng.uniform(0, jitter)
            bandwidth = link.bandwidth_mbps
            if bandwidth is not None:
                now = self.sim.now
                serialization = dgram.size_bits / (bandwidth * 1e6)
                start = now + delay
                if start < state.busy_until:
                    start = state.busy_until
                state.busy_until = start + serialization
                delay = (start + serialization) - now
        self.sim.call_later(delay, self._deliver, dgram)

    def _deliver(self, dgram: Datagram) -> None:
        # send() only schedules a delivery to a known node: the sender
        # itself, or the last hop of a plan.
        if not self._node_up[dgram.dst]:
            self.stats["dropped_down"] += 1
            return
        try:
            handler = self._handlers[dgram.dst, dgram.port]
        except KeyError:
            self.stats["dropped_no_handler"] += 1
            return
        self.stats["delivered"] += 1
        handler(dgram)

    # -- routing -----------------------------------------------------------------

    def _compile_route(self, src: str, dst: str) -> Optional[HopPlan]:
        """BFS a path from ``src`` to ``dst`` once and cache it as a hop
        plan; the cache lives until the topology or a node's state
        changes."""
        path = self._bfs(src, dst)
        plan = None
        if path is not None:
            adjacency = self._adjacency
            plan = tuple((hop_dst, adjacency[hop_src][hop_dst])
                         for hop_src, hop_dst in zip(path, path[1:]))
        self._route_cache[src, dst] = plan
        return plan

    def _bfs(self, src: str, dst: str) -> Optional[List[str]]:
        if src == dst:
            return [src]
        if src not in self._adjacency or dst not in self._adjacency:
            return None
        node_up = self._node_up
        visited = {src}
        frontier: List[List[str]] = [[src]]
        while frontier:
            next_frontier: List[List[str]] = []
            for path in frontier:
                for neighbor in self._adjacency[path[-1]]:
                    if neighbor in visited:
                        continue
                    if neighbor == dst:
                        return path + [neighbor]
                    # Down nodes cannot forward: route around crashed
                    # transit.  The endpoints themselves are checked at
                    # send/deliver time, so a down dst still terminates the
                    # search (and the drop is counted there).
                    if not node_up.get(neighbor, False):
                        continue
                    visited.add(neighbor)
                    next_frontier.append(path + [neighbor])
            frontier = next_frontier
        return None
