"""Reference network: the hop-by-hop send, the delivery oracle.

``repro.net.simnet.Network`` compiles each ``(src, dst)`` route once into
a hop plan of ``(next node, link state)`` pairs, looks its two RNG
streams up when it is built, and walks the plan on every send.  This
network routes every send afresh: a BFS over the current topology and
node states, then per hop an adjacency lookup, a stream lookup and the
same four steps — next-node check, loss draw, jitter draw,
serialization slot.  With no route cache there is nothing to invalidate,
so a product whose cache went stale shows up as a different delivery.

It shares the product's topology, sockets, BFS and delivery, so the two
can only differ in where a datagram goes, when it arrives and which
draws it takes — which is what ``test_net_simnet_oracle.py`` compares.
"""

from repro.net.simnet import Datagram, Network


class ReferenceNetwork(Network):
    """``Network`` with the retired uncompiled send."""

    def send(self, dgram: Datagram) -> None:
        self.stats["sent"] += 1
        if not self._node_up.get(dgram.src, False):
            self.stats["dropped_down"] += 1
            return
        if dgram.src == dgram.dst:
            self.sim.call_later(0.0, self._deliver, dgram)
            return
        path = self._bfs(dgram.src, dgram.dst)
        if path is None:
            self.stats["dropped_unroutable"] += 1
            return
        delay = 0.0
        rng = self.rng.stream("network.loss")
        jrng = self.rng.stream("network.jitter")
        now = self.sim.now
        for hop_src, hop_dst in zip(path, path[1:]):
            if not self._node_up.get(hop_dst, False):
                self.stats["dropped_down"] += 1
                return
            state = self._adjacency[hop_src][hop_dst]
            link = state.link
            if link.loss > 0 and rng.random() < link.loss:
                self.stats["dropped_loss"] += 1
                return
            delay += link.latency
            if link.jitter > 0:
                delay += jrng.uniform(0, link.jitter)
            if link.bandwidth_mbps is not None:
                serialization = dgram.size_bits / (link.bandwidth_mbps * 1e6)
                start = max(now + delay, state.busy_until)
                state.busy_until = start + serialization
                delay = (start + serialization) - now
        self.sim.call_later(delay, self._deliver, dgram)
