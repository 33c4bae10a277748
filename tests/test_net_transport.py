"""Unit tests for datagram sockets and backhaul link profiles."""

import pytest

from repro.net import Link, Network, backhaul
from repro.net.transport import DatagramSocket
from repro.sim import RngRegistry, Simulator


def build(loss=0.0, latency=0.01, seed=1):
    sim = Simulator()
    net = Network(sim, RngRegistry(seed))
    net.connect("a", "b", Link(latency=latency, loss=loss))
    return sim, net


def test_datagram_socket_roundtrip():
    sim, net = build()
    got = []
    DatagramSocket(net, "b", 100, lambda p, src, port: got.append((p, src)))
    sock_a = DatagramSocket(net, "a", 100)
    sock_a.send("b", 100, {"msg": "hi"})
    sim.run()
    assert got == [({"msg": "hi"}, "a")]


def test_datagram_socket_is_lossy():
    sim, net = build(loss=0.4)
    got = []
    DatagramSocket(net, "b", 100, lambda p, src, port: got.append(p))
    sock_a = DatagramSocket(net, "a", 100)
    for i in range(100):
        sock_a.send("b", 100, i)
    sim.run()
    assert len(got) < 100  # datagrams do not survive loss


def test_datagram_socket_close_unbinds():
    sim, net = build()
    sock = DatagramSocket(net, "b", 100, lambda p, s, po: None)
    sock.close()
    DatagramSocket(net, "b", 100, lambda p, s, po: None)  # rebinding works


def test_backhaul_profiles():
    assert backhaul.fiber().loss == 0.0
    assert backhaul.satellite().latency == pytest.approx(0.3)
    assert backhaul.microwave().loss > 0
    assert backhaul.by_name("satellite").latency == pytest.approx(0.3)
    assert backhaul.by_name("lan").latency < 0.001
    with pytest.raises(KeyError):
        backhaul.by_name("carrier-pigeon")


def test_satellite_vs_fiber_delay_contrast():
    sim = Simulator()
    net = Network(sim, RngRegistry(5))
    net.connect("agw", "orc-fiber", backhaul.fiber())
    net.connect("agw", "orc-sat", Link(latency=0.3, loss=0.0))
    times = {}
    net.bind("orc-fiber", 1, lambda d: times.__setitem__("fiber", sim.now))
    net.bind("orc-sat", 1, lambda d: times.__setitem__("sat", sim.now))
    from repro.net import Datagram
    net.send(Datagram("agw", "orc-fiber", 1, "x"))
    net.send(Datagram("agw", "orc-sat", 1, "x"))
    sim.run()
    assert times["sat"] > times["fiber"] * 10
