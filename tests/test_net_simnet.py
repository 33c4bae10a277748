"""Unit tests for the simulated network (nodes, links, routing, failures)."""

import pytest

from repro.net import Datagram, Link, Network, RpcChannel
from repro.sim import RngRegistry, Simulator


def make_net(loss=0.0, latency=0.01):
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    net.connect("a", "b", Link(latency=latency, loss=loss))
    return sim, net


def test_delivery_with_latency():
    sim, net = make_net(latency=0.25)
    got = []
    net.bind("b", 10, lambda d: got.append((sim.now, d.payload)))
    net.send(Datagram("a", "b", 10, "hello"))
    sim.run()
    assert got == [(0.25, "hello")]


def test_loss_validation():
    with pytest.raises(ValueError):
        Link(loss=1.0)
    with pytest.raises(ValueError):
        Link(loss=-0.1)
    with pytest.raises(ValueError):
        Link(latency=-1)
    with pytest.raises(ValueError):
        Link(bandwidth_mbps=0)


def test_lossy_link_drops_some():
    sim, net = make_net(loss=0.5)
    got = []
    net.bind("b", 10, lambda d: got.append(d.payload))
    for i in range(200):
        net.send(Datagram("a", "b", 10, i))
    sim.run()
    assert 40 < len(got) < 160  # ~100 expected
    assert net.stats["dropped_loss"] == 200 - len(got)


def test_lossless_link_delivers_all():
    sim, net = make_net(loss=0.0)
    got = []
    net.bind("b", 10, lambda d: got.append(d.payload))
    for i in range(50):
        net.send(Datagram("a", "b", 10, i))
    sim.run()
    assert len(got) == 50


def test_multi_hop_routing():
    sim = Simulator()
    net = Network(sim)
    net.connect("a", "m", Link(latency=0.1))
    net.connect("m", "b", Link(latency=0.2))
    got = []
    net.bind("b", 5, lambda d: got.append(sim.now))
    net.send(Datagram("a", "b", 5, "x"))
    sim.run()
    assert got == [pytest.approx(0.3)]


def test_unroutable_is_dropped():
    sim = Simulator()
    net = Network(sim)
    net.connect("a", "b")
    net.add_node("island")
    net.bind("island", 1, lambda d: pytest.fail("should not deliver"))
    net.send(Datagram("a", "island", 1, "x"))
    sim.run()
    assert net.stats["dropped_unroutable"] == 1


def test_down_node_drops_traffic():
    sim, net = make_net()
    got = []
    net.bind("b", 10, lambda d: got.append(d.payload))
    net.set_node_up("b", False)
    net.send(Datagram("a", "b", 10, "x"))
    sim.run()
    assert got == []
    assert net.stats["dropped_down"] >= 1


def test_down_transit_node_drops_traffic():
    sim = Simulator()
    net = Network(sim)
    net.connect("a", "m")
    net.connect("m", "b")
    got = []
    net.bind("b", 1, lambda d: got.append(d.payload))
    net.set_node_up("m", False)
    net.send(Datagram("a", "b", 1, "x"))
    sim.run()
    assert got == []


def test_node_recovery_restores_delivery():
    sim, net = make_net()
    got = []
    net.bind("b", 10, lambda d: got.append(d.payload))
    net.set_node_up("b", False)
    net.send(Datagram("a", "b", 10, "lost"))
    net.set_node_up("b", True)
    net.send(Datagram("a", "b", 10, "ok"))
    sim.run()
    assert got == ["ok"]


def test_no_handler_counts_drop():
    sim, net = make_net()
    net.send(Datagram("a", "b", 99, "x"))
    sim.run()
    assert net.stats["dropped_no_handler"] == 1


def test_bandwidth_serialization_delays():
    sim = Simulator()
    net = Network(sim)
    # 1 Mbps link: a 1,000,000-bit message takes 1 s to serialize.
    net.connect("a", "b", Link(latency=0.0, bandwidth_mbps=1.0))
    got = []
    net.bind("b", 1, lambda d: got.append(sim.now))
    net.send(Datagram("a", "b", 1, "big1", size_bits=1_000_000))
    net.send(Datagram("a", "b", 1, "big2", size_bits=1_000_000))
    sim.run()
    assert got[0] == pytest.approx(1.0, rel=0.01)
    assert got[1] == pytest.approx(2.0, rel=0.01)  # queued behind big1


def test_self_connect_rejected():
    sim = Simulator()
    net = Network(sim)
    with pytest.raises(ValueError):
        net.connect("a", "a")


def test_duplicate_bind_rejected():
    sim, net = make_net()
    net.bind("b", 7, lambda d: None)
    with pytest.raises(ValueError):
        net.bind("b", 7, lambda d: None)


def test_set_node_up_unknown_raises():
    sim, net = make_net()
    with pytest.raises(KeyError):
        net.set_node_up("ghost", False)


# -- routing around failures and route-cache invalidation ---------------------


def test_reroute_around_crashed_transit():
    """A crashed transit node must not black-hole traffic between healthy
    endpoints that still have a live alternate path."""
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    net.connect("a", "m1", Link(latency=0.01))
    net.connect("m1", "b", Link(latency=0.01))
    net.connect("a", "m2", Link(latency=0.05))
    net.connect("m2", "b", Link(latency=0.05))
    got = []
    net.bind("b", 9, got.append)
    net.send(Datagram("a", "b", 9, "warm"))  # populate the route cache
    sim.run()
    assert [d.payload for d in got] == ["warm"]
    net.set_node_up("m1", False)
    net.send(Datagram("a", "b", 9, "after-crash"))
    sim.run()
    assert [d.payload for d in got] == ["warm", "after-crash"]
    assert net.stats["dropped_down"] == 0  # rerouted via m2, never black-holed
    assert net.stats["dropped_unroutable"] == 0


def test_recovery_invalidates_negative_route_cache():
    """A no-route verdict cached while a node was down must be recomputed
    once the node recovers."""
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    net.connect("a", "m", Link(latency=0.01))
    net.connect("m", "b", Link(latency=0.01))
    got = []
    net.bind("b", 9, got.append)
    net.set_node_up("m", False)
    net.send(Datagram("a", "b", 9, "lost"))
    sim.run()
    assert got == []
    assert net.stats["dropped_unroutable"] == 1
    net.set_node_up("m", True)
    net.send(Datagram("a", "b", 9, "found"))
    sim.run()
    assert [d.payload for d in got] == ["found"]


def test_binding_on_a_known_node_keeps_the_compiled_routes():
    """A bind, or a new RPC channel, on a node already in the network
    changes no route, so it must not flush the cached hop plans."""
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    net.connect("a", "m", Link(latency=0.01))
    net.connect("m", "b", Link(latency=0.01))
    net.bind("b", 9, lambda d: None)
    searches = []
    bfs = net._bfs
    net._bfs = lambda src, dst: searches.append((src, dst)) or bfs(src, dst)
    net.send(Datagram("a", "b", 9, "compile"))
    plan = net._route_cache["a", "b"]
    net.bind("b", 10, lambda d: None)
    net.bind("a", 11, lambda d: None)
    RpcChannel(sim, net, "a", "b")
    net.send(Datagram("a", "b", 10, "reuse"))
    sim.run()
    assert searches == [("a", "b")]
    assert net._route_cache["a", "b"] is plan
    assert net.stats["delivered"] == 2


def test_a_link_mutated_after_its_route_is_compiled_applies_at_once():
    """Loss and latency flaps on a live Link take effect on the next send,
    though the route through it was compiled before the flap."""
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    first = net.connect("a", "m", Link(latency=0.01))
    second = net.connect("m", "b", Link(latency=0.02))
    got = []
    net.bind("b", 9, lambda d: got.append((sim.now, d.payload)))

    def transit(payload):
        """Seconds from send to delivery, or None when it was dropped."""
        sent = sim.now
        net.send(Datagram("a", "b", 9, payload))
        sim.run()
        if got and got[-1][1] == payload:
            return got[-1][0] - sent
        return None

    assert transit("compile") == pytest.approx(0.03)
    second.latency = 0.5
    assert transit("slow") == pytest.approx(0.51)
    first.loss = 0.999999
    assert transit("lost") is None
    assert net.stats["dropped_loss"] == 1
    first.loss = 0.0
    second.latency = 0.02
    assert transit("healed") == pytest.approx(0.03)
