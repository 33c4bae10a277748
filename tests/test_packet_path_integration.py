"""Per-packet GTP-U path through a fully established session.

The fluid model carries the experiments; this verifies the *packet-level*
pipeline end to end after a real attach: uplink GTP-U decap -> policy ->
SGi, and downlink SGi -> policy -> GTP-U encap toward the eNodeB's TEID.
"""

from repro.dataplane import GtpuHeader, gtpu_encap, ip_packet
from repro.deploy import build


def attached_site():
    site = build(num_ues=1)
    ue = site.ues[0]
    assert site.run_attach(ue).success
    site.sim.run(until=site.sim.now + 2.0)
    session = site.agw.sessiond.session(ue.imsi)
    assert session.enb_teid is not None
    return site, ue, session


def test_uplink_packet_decapped_and_forwarded():
    site, ue, session = attached_site()
    pipelined = site.agw.pipelined
    sgi_out = []
    pipelined.set_port_delivery("internet", sgi_out.append)
    # The eNodeB would encapsulate the UE's packet toward the AGW's TEID.
    pkt = ip_packet(ue.ip_address, "93.184.216.34", dport=443)
    gtpu_encap(pkt, session.agw_teid, tunnel_src="enb-1",
               tunnel_dst="agw-1")
    pipelined.switch.inject(pkt, "ran")
    assert len(sgi_out) == 1
    out = sgi_out[0]
    assert out.find(GtpuHeader) is None              # decapped
    assert out.inner_ip().src == ue.ip_address
    assert out.metadata["imsi"] == ue.imsi           # classified
    assert out.metadata["direction"] == "uplink"


def test_downlink_packet_encapped_toward_enb():
    site, ue, session = attached_site()
    pipelined = site.agw.pipelined
    ran_out = []
    pipelined.set_port_delivery("ran", ran_out.append)
    pkt = ip_packet("93.184.216.34", ue.ip_address, sport=443)
    pipelined.switch.inject(pkt, "internet")
    assert len(ran_out) == 1
    out = ran_out[0]
    gtpu = out.find(GtpuHeader)
    assert gtpu is not None
    assert gtpu.teid == session.enb_teid             # the eNodeB's TEID
    assert gtpu.tunnel_dst == "enb-1"
    assert out.inner_ip().dst == ue.ip_address


def test_unknown_teid_uplink_dropped():
    site, ue, session = attached_site()
    pipelined = site.agw.pipelined
    sgi_out = []
    pipelined.set_port_delivery("internet", sgi_out.append)
    pkt = ip_packet("10.99.0.1", "8.8.8.8")
    gtpu_encap(pkt, 0xDEAD, tunnel_src="enb-1", tunnel_dst="agw-1")
    drops_before = pipelined.switch.stats["dropped"]
    pipelined.switch.inject(pkt, "ran")
    assert pipelined.switch.stats["dropped"] == drops_before + 1
    assert sgi_out == []  # never forwarded


def test_downlink_for_foreign_ip_not_delivered():
    site, ue, session = attached_site()
    pipelined = site.agw.pipelined
    ran_out = []
    pipelined.set_port_delivery("ran", ran_out.append)
    pipelined.switch.inject(ip_packet("8.8.8.8", "10.200.0.77"), "internet")
    assert ran_out == []


def test_packet_counters_accumulate():
    from repro.dataplane import StatsRequest
    site, ue, session = attached_site()
    pipelined = site.agw.pipelined
    pipelined.set_port_delivery("internet", lambda p: None)
    for _ in range(5):
        pkt = ip_packet(ue.ip_address, "8.8.8.8", payload_bytes=1000)
        gtpu_encap(pkt, session.agw_teid, "enb-1", "agw-1")
        pipelined.switch.inject(pkt, "ran")
    reply = pipelined.switch.apply(StatsRequest(cookie=ue.imsi))
    total_packets = sum(entry.packets for entry in reply.entries)
    assert total_packets >= 5 * 3  # classify + policy + egress tables


def test_detach_stops_packet_forwarding():
    site, ue, session = attached_site()
    pipelined = site.agw.pipelined
    sgi_out = []
    pipelined.set_port_delivery("internet", sgi_out.append)
    agw_teid = session.agw_teid
    ue.detach()
    site.sim.run(until=site.sim.now + 2.0)
    pkt = ip_packet("10.128.0.1", "8.8.8.8")
    gtpu_encap(pkt, agw_teid, "enb-1", "agw-1")
    pipelined.switch.inject(pkt, "ran")
    assert sgi_out == []
