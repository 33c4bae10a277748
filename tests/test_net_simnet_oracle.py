"""The compiled-route send delivers exactly what the hop-by-hop send did.

``reference_simnet`` holds the retired send: a fresh BFS and a per-hop
adjacency lookup on every datagram.  Random operation streams run against
it and against the product side by side, each on its own simulator and
an equally seeded RNG registry: sends between random (and unknown)
endpoints, endpoint and transit crash/recover, new links and re-``connect``
of linked pairs, binds on known nodes, live ``Link`` mutation (loss,
latency, jitter, bandwidth flaps) and clock advances.  After the run
both must have delivered the same datagrams to the same ports at the
same instants in the same order, kept equal ``stats``, and left the loss
and jitter streams in the same state — a draw taken or skipped by one
side only would show there.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_simnet import ReferenceNetwork
from repro.net import Datagram, Link, Network
from repro.sim import RngRegistry, Simulator

NODES = ("n0", "n1", "n2", "n3", "n4")
#: Send endpoints: the known nodes and one the network never heard of.
ENDPOINTS = NODES + ("ghost",)

links = st.builds(
    Link,
    latency=st.sampled_from([0.0, 0.001, 0.01, 0.25]),
    loss=st.sampled_from([0.0, 0.0, 0.3, 0.9]),
    jitter=st.sampled_from([0.0, 0.0, 0.005]),
    bandwidth_mbps=st.sampled_from([None, None, 1.0, 10.0]))
pairs = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
    lambda pair: pair[0] != pair[1])
#: Most sends cross the graph between two fixed ends, so a route cached
#: by one send is reused by a later one after the topology has moved.
routes = st.one_of(st.just(("n0", "n4")), st.just(("n4", "n0")),
                   st.tuples(st.sampled_from(ENDPOINTS),
                             st.sampled_from(ENDPOINTS)))
send = st.tuples(st.just("send"), routes, st.sampled_from([1, 1, 2]),
                 st.sampled_from([8_000, 1_000_000]))
#: Transit nodes crash and recover more often than the two ends, n1 (on
#: the first route BFS finds between them) most often.
up = st.tuples(st.just("up"),
               st.sampled_from(("n1", "n1", "n1", "n2", "n3", "n0", "n4")),
               st.booleans())
connect = st.tuples(st.just("connect"), pairs, links)
bind = st.tuples(st.just("bind"), st.sampled_from(NODES))
flap = st.tuples(
    st.just("flap"), st.integers(0, 20),
    st.sampled_from([("loss", 0.0), ("loss", 0.5), ("latency", 0.0),
                     ("latency", 0.1), ("jitter", 0.0), ("jitter", 0.02),
                     ("bandwidth_mbps", None), ("bandwidth_mbps", 2.0)]))
advance = st.tuples(st.just("run"), st.sampled_from([0.0, 0.005, 0.3, 2.0]))
ops = st.lists(st.one_of(send, send, send, up, up, connect, bind, flap,
                         advance),
               min_size=20, max_size=60)
#: Three disjoint two-hop paths between the ends, so a crashed transit
#: node reroutes, plus random extra links (shortcuts, chains, islands).
BASE = (("n0", "n1"), ("n1", "n4"), ("n0", "n2"), ("n2", "n4"),
        ("n0", "n3"), ("n3", "n4"))
topologies = st.tuples(
    st.lists(links, min_size=len(BASE), max_size=len(BASE)),
    st.lists(st.tuples(pairs, links), max_size=4)).map(
        lambda drawn: list(zip(BASE, drawn[0])) + drawn[1])


def replay(kind, seed, topology, stream):
    """Run ``stream`` on a fresh ``kind`` network; what it delivered (with
    times), its stats and its loss/jitter stream states."""
    sim = Simulator()
    net = kind(sim, RngRegistry(seed))
    delivered = []

    def handler(dgram):
        delivered.append((sim.now, dgram.dst, dgram.port, dgram.payload))

    for node in NODES:
        net.add_node(node)
        net.bind(node, 1, handler)
    live = []  # every Link this side has connected so far
    for (a, b), link in topology:
        live.append(net.connect(a, b, link))
    for index, op in enumerate(stream):
        if op[0] == "send":
            _, (src, dst), port, size = op
            net.send(Datagram(src, dst, port, index, size))
        elif op[0] == "up":
            net.set_node_up(op[1], op[2])
        elif op[0] == "connect":
            (a, b), link = op[1], op[2]
            live.append(net.connect(a, b, link))
        elif op[0] == "bind":
            net.bind(op[1], 100 + index, handler)
        elif op[0] == "flap":
            _, which, (field, value) = op
            setattr(live[which % len(live)], field, value)
        else:
            sim.run(until=sim.now + op[1])
    sim.run()
    return (delivered, dict(net.stats),
            net.rng.stream("network.loss").getstate(),
            net.rng.stream("network.jitter").getstate())


def fresh(topology, stream):
    """Copies of every Link, so each side mutates its own."""
    def copy(link):
        return Link(link.latency, link.loss, link.jitter,
                    link.bandwidth_mbps, link.name)

    return ([(pair, copy(link)) for pair, link in topology],
            [op[:2] + (copy(op[2]),) if op[0] == "connect" else op
             for op in stream])


#: A stream every route-cache invalidation is needed for: the route
#: through n1 is compiled, n1 crashes and recovers, then a shortcut
#: link and a re-``connect`` replace the links the route runs over.
CRASH_AND_RELINK = [
    ("send", ("n0", "n4"), 1, 8_000), ("up", "n1", False),
    ("send", ("n0", "n4"), 1, 8_000), ("up", "n1", True),
    ("send", ("n0", "n4"), 1, 8_000), ("connect", ("n0", "n4"), Link(0.5)),
    ("send", ("n0", "n4"), 1, 8_000), ("connect", ("n0", "n4"), Link(0.1)),
    ("send", ("n4", "n0"), 1, 8_000)]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 16), topologies, ops)
@example(1, [(pair, Link()) for pair in BASE], CRASH_AND_RELINK)
def test_compiled_routes_deliver_what_hop_by_hop_routing_did(
        seed, topology, stream):
    product = replay(Network, seed, *fresh(topology, stream))
    reference = replay(ReferenceNetwork, seed, *fresh(topology, stream))
    assert product[0] == reference[0]
    assert product[1] == reference[1]
    assert product[2] == reference[2]
    assert product[3] == reference[3]
