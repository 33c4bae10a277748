"""Unit tests for the packet model and GTP-U encap/decap."""

import pytest

from repro.dataplane import (
    GtpuHeader,
    IPv4Header,
    Packet,
    PROTO_TCP,
    PROTO_UDP,
    TcpHeader,
    UdpHeader,
    gtpu_decap,
    gtpu_encap,
    ip_packet,
)


def test_ip_packet_constructor_udp():
    pkt = ip_packet("10.0.0.1", "8.8.8.8", proto=PROTO_UDP, sport=1234, dport=53)
    ip = pkt.find(IPv4Header)
    udp = pkt.find(UdpHeader)
    assert ip.src == "10.0.0.1" and ip.dst == "8.8.8.8"
    assert udp.sport == 1234 and udp.dport == 53


def test_ip_packet_constructor_tcp():
    pkt = ip_packet("10.0.0.1", "1.1.1.1", proto=PROTO_TCP, dport=443)
    assert pkt.find(TcpHeader).dport == 443
    assert pkt.find(UdpHeader) is None


def test_size_includes_headers():
    pkt = ip_packet("10.0.0.1", "1.1.1.1", payload_bytes=1000)
    base = pkt.size_bytes
    gtpu_encap(pkt, teid=7, tunnel_src="192.168.0.1", tunnel_dst="192.168.0.2")
    assert pkt.size_bytes == base + 3 * 40  # outer IP + UDP + GTPU


def test_push_pop_outermost():
    pkt = Packet()
    pkt.push(UdpHeader(1, 2))
    pkt.push(IPv4Header("a", "b"))
    assert isinstance(pkt.outermost(), IPv4Header)
    pkt.pop()
    assert isinstance(pkt.outermost(), UdpHeader)


def test_pop_empty_raises():
    with pytest.raises(ValueError):
        Packet().pop()
    with pytest.raises(ValueError):
        Packet().outermost()


def test_encap_then_decap_roundtrip():
    pkt = ip_packet("10.0.0.5", "8.8.8.8")
    inner_before = pkt.inner_ip()
    gtpu_encap(pkt, teid=42, tunnel_src="172.16.0.1", tunnel_dst="172.16.0.2")
    assert pkt.find(GtpuHeader) is not None
    assert pkt.find(GtpuHeader).teid == 42
    assert pkt.outermost().src == "172.16.0.1"

    gtpu_decap(pkt)
    assert pkt.find(GtpuHeader) is None
    assert pkt.inner_ip() is inner_before
    assert pkt.metadata["decapped_teid"] == 42
    assert pkt.metadata["decapped_from"] == "172.16.0.1"


def test_decap_non_tunneled_raises():
    pkt = ip_packet("10.0.0.5", "8.8.8.8")
    with pytest.raises(ValueError):
        gtpu_decap(pkt)


def test_decap_wrong_udp_port_raises():
    pkt = ip_packet("10.0.0.5", "8.8.8.8")
    pkt.push(UdpHeader(sport=9999, dport=9999))
    pkt.push(IPv4Header("1.1.1.1", "2.2.2.2"))
    with pytest.raises(ValueError):
        gtpu_decap(pkt)


def test_inner_ip_skips_tunnel_layers():
    pkt = ip_packet("10.0.0.5", "8.8.8.8")
    gtpu_encap(pkt, 1, "172.16.0.1", "172.16.0.2")
    assert pkt.inner_ip().src == "10.0.0.5"


def test_copy_is_independent():
    pkt = ip_packet("10.0.0.5", "8.8.8.8")
    clone = pkt.copy()
    assert clone.packet_id != pkt.packet_id
    clone.inner_ip().src = "10.9.9.9"
    assert pkt.inner_ip().src == "10.0.0.5"


def test_copy_is_independent_per_layer_and_metadata():
    pkt = ip_packet("10.0.0.5", "8.8.8.8", sport=1000, dport=53)
    gtpu_encap(pkt, teid=9, tunnel_src="agw", tunnel_dst="enb")
    pkt.metadata["direction"] = "downlink"
    clone = pkt.copy()
    # Every layer is a distinct object with equal fields.
    assert len(clone.headers) == len(pkt.headers)
    for ours, theirs in zip(pkt.headers, clone.headers):
        assert ours == theirs and ours is not theirs
    # Mutating any clone layer or metadata leaves the original untouched.
    clone.find(GtpuHeader).teid = 77
    clone.pop()
    clone.metadata["direction"] = "uplink"
    assert pkt.find(GtpuHeader).teid == 9
    assert len(pkt.headers) == 5
    assert pkt.metadata["direction"] == "downlink"


def test_packet_ids_unique():
    assert ip_packet("a", "b").packet_id != ip_packet("a", "b").packet_id


# -- flow keys (microflow cache) ---------------------------------------------------


def test_flow_key_stable_and_port_sensitive():
    a = ip_packet("10.0.0.1", "8.8.8.8", sport=4000, dport=80)
    b = ip_packet("10.0.0.1", "8.8.8.8", sport=4000, dport=80)
    assert a.flow_key("ran") == b.flow_key("ran")
    assert a.flow_key("ran") != b.flow_key("internet")


def test_flow_key_distinguishes_header_fields_and_structure():
    base = ip_packet("10.0.0.1", "8.8.8.8", dport=80)
    other_port = ip_packet("10.0.0.1", "8.8.8.8", dport=443)
    tcp = ip_packet("10.0.0.1", "8.8.8.8", proto=PROTO_TCP, dport=80)
    tunneled = gtpu_encap(ip_packet("10.0.0.1", "8.8.8.8", dport=80),
                          5, "enb", "agw")
    keys = {p.flow_key("ran") for p in (base, other_port, tcp, tunneled)}
    assert len(keys) == 4


def test_flow_key_includes_metadata():
    a = ip_packet("10.0.0.1", "8.8.8.8")
    b = ip_packet("10.0.0.1", "8.8.8.8")
    b.metadata["decapped_teid"] = 5
    assert a.flow_key("ran") != b.flow_key("ran")


def test_flow_key_uncacheable_cases():
    unknown_layer = Packet(headers=[object()])
    assert unknown_layer.flow_key("ran") is None
    unhashable = ip_packet("a", "b")
    unhashable.metadata["trace"] = [1, 2]
    assert unhashable.flow_key("ran") is None
