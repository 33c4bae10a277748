"""Unit tests for flow matching and token-bucket meters."""

import pytest

from repro.dataplane import FlowMatch, TokenBucketMeter, ip_packet, gtpu_encap
from repro.dataplane.packet import PROTO_TCP, PROTO_UDP


def test_wildcard_matches_everything():
    match = FlowMatch()
    assert match.matches(ip_packet("1.2.3.4", "5.6.7.8"), "any-port")


def test_exact_ip_match():
    match = FlowMatch(ip_src="10.0.0.1")
    assert match.matches(ip_packet("10.0.0.1", "x"), None)
    assert not match.matches(ip_packet("10.0.0.2", "x"), None)


def test_cidr_prefix_match():
    match = FlowMatch(ip_dst="10.1.0.0/16")
    assert match.matches(ip_packet("x", "10.1.200.3"), None)
    assert not match.matches(ip_packet("x", "10.2.0.1"), None)


def test_invalid_cidr_never_matches():
    match = FlowMatch(ip_dst="10.1.0.0/99")
    assert not match.matches(ip_packet("x", "10.1.0.1"), None)


def test_in_port_match():
    match = FlowMatch(in_port="gtp0")
    pkt = ip_packet("a", "b")
    assert match.matches(pkt, "gtp0")
    assert not match.matches(pkt, "eth0")


def test_proto_and_l4_match():
    match = FlowMatch(ip_proto=PROTO_TCP, l4_dport=443)
    assert match.matches(ip_packet("a", "b", proto=PROTO_TCP, dport=443), None)
    assert not match.matches(ip_packet("a", "b", proto=PROTO_TCP, dport=80), None)
    assert not match.matches(ip_packet("a", "b", proto=PROTO_UDP, dport=443), None)


def test_l4_match_requires_l4_header():
    match = FlowMatch(l4_dport=80)
    from repro.dataplane import Packet, IPv4Header
    bare = Packet(headers=[IPv4Header("a", "b", proto=132)])  # SCTP, no L4 model
    assert not match.matches(bare, None)


def test_tun_id_matches_gtpu_header_and_metadata():
    match = FlowMatch(tun_id=77)
    pkt = ip_packet("10.0.0.1", "b")
    assert not match.matches(pkt, None)
    gtpu_encap(pkt, 77, "t1", "t2")
    assert match.matches(pkt, None)
    # After decap the TEID lives in metadata.
    from repro.dataplane import gtpu_decap
    gtpu_decap(pkt)
    assert match.matches(pkt, None)


def test_register_match():
    match = FlowMatch(registers={"direction": "uplink"})
    pkt = ip_packet("a", "b")
    assert not match.matches(pkt, None)
    pkt.metadata["direction"] = "uplink"
    assert match.matches(pkt, None)


def test_dscp_match():
    match = FlowMatch(dscp=46)
    assert match.matches(ip_packet("a", "b", dscp=46), None)
    assert not match.matches(ip_packet("a", "b", dscp=0), None)


# -- meters ---------------------------------------------------------------------


def test_meter_allows_within_rate():
    meter = TokenBucketMeter(1, rate_mbps=8.0, burst_bytes=10_000)
    # 8 Mbps = 1 MB/s. 1000-byte packets at 100/s = 0.1 MB/s: all pass.
    now = 0.0
    for _ in range(100):
        assert meter.allow(1000, now)
        now += 0.01
    assert meter.stats["dropped_packets"] == 0


def test_meter_drops_over_rate():
    meter = TokenBucketMeter(1, rate_mbps=0.8, burst_bytes=2_000)
    # 0.8 Mbps = 100 kB/s. Offer 1000-byte packets at 1000/s = 1 MB/s.
    now = 0.0
    allowed = 0
    for _ in range(1000):
        if meter.allow(1000, now):
            allowed += 1
        now += 0.001
    # ~100 kB/s admitted over 1s => ~100 packets (+ initial burst of 2).
    assert 80 <= allowed <= 130
    assert meter.stats["dropped_packets"] == 1000 - allowed


def test_meter_burst_absorbs_spike():
    meter = TokenBucketMeter(1, rate_mbps=0.008, burst_bytes=5_000)
    # All at t=0: the burst allows the first 5 packets of 1000B.
    allowed = sum(1 for _ in range(10) if meter.allow(1000, 0.0))
    assert allowed == 5


def test_meter_clock_regression_rejected():
    meter = TokenBucketMeter(1, rate_mbps=1.0)
    meter.allow(100, 10.0)
    with pytest.raises(ValueError):
        meter.allow(100, 5.0)


def test_meter_fluid_shape():
    meter = TokenBucketMeter(1, rate_mbps=12.5)
    assert meter.shape(5.0) == 5.0
    assert meter.shape(100.0) == 12.5
    with pytest.raises(ValueError):
        meter.shape(-1.0)


def test_meter_reconfigure():
    meter = TokenBucketMeter(1, rate_mbps=10.0)
    meter.reconfigure(1.0)
    assert meter.shape(100.0) == 1.0
    with pytest.raises(ValueError):
        meter.reconfigure(0)


def test_meter_validation():
    with pytest.raises(ValueError):
        TokenBucketMeter(1, rate_mbps=0)
    with pytest.raises(ValueError):
        TokenBucketMeter(1, rate_mbps=1, burst_bytes=0)
