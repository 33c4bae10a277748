"""Structural packet model for the software data plane.

Packets are modelled as a stack of typed headers plus a payload size.  We do
not serialize to real wire formats - the data plane's behaviour (matching,
tunnel push/pop, metering, stats) depends only on header *fields*, which is
what this model carries.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple, Type, TypeVar

from ..record import field, record, replace

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

GTPU_PORT = 2152


@record
class IPv4Header:
    """An IPv4 header: addresses are plain dotted-quad strings."""

    src: str
    dst: str
    proto: int = PROTO_UDP
    dscp: int = 0
    ttl: int = 64


@record
class UdpHeader:
    sport: int = 0
    dport: int = 0


@record
class TcpHeader:
    sport: int = 0
    dport: int = 0


@record
class GtpuHeader:
    """GTP-U tunnel header: TEID identifies the bearer."""

    teid: int
    # The encapsulating endpoints (set when pushed):
    tunnel_src: str = ""
    tunnel_dst: str = ""


H = TypeVar("H")

_packet_ids = itertools.count(1)


@record
class Packet:
    """A packet: a header stack (outermost first) and a payload size."""

    headers: List[Any] = field(default_factory=list)
    payload_bytes: int = 1400
    metadata: Dict[str, Any] = field(default_factory=dict)
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    @property
    def size_bytes(self) -> int:
        """Total size: payload plus a nominal 40 bytes per header layer."""
        return self.payload_bytes + 40 * len(self.headers)

    def push(self, header: Any) -> None:
        """Add ``header`` as the new outermost layer."""
        self.headers.insert(0, header)

    def pop(self) -> Any:
        """Remove and return the outermost header."""
        if not self.headers:
            raise ValueError("cannot pop from empty header stack")
        return self.headers.pop(0)

    def outermost(self) -> Any:
        if not self.headers:
            raise ValueError("packet has no headers")
        return self.headers[0]

    def find(self, header_type: Type[H]) -> Optional[H]:
        """Return the outermost header of the given type, if present."""
        for header in self.headers:
            if isinstance(header, header_type):
                return header
        return None

    def inner_ip(self) -> Optional[IPv4Header]:
        """The innermost IPv4 header (the UE's, beneath any tunnel)."""
        for header in reversed(self.headers):
            if isinstance(header, IPv4Header):
                return header
        return None

    def copy(self) -> "Packet":
        """A structural copy with a fresh packet id.

        Headers are flat dataclasses of scalars, so a per-layer
        :func:`dataclasses.replace` gives independent copies without the
        cost of a recursive deepcopy (hot in ``evaluate_fluid``).
        """
        return Packet(headers=[replace(h) for h in self.headers],
                      payload_bytes=self.payload_bytes,
                      metadata=dict(self.metadata))

    def flow_key(self, in_port: Optional[str] = None) -> Optional[Tuple[Any, ...]]:
        """A hashable microflow key: in_port plus every extracted header field.

        Two packets with equal flow keys are indistinguishable to the
        classifier (same match fields, same header structure for tunnel
        push/pop), so the switch can memoize the resolved rule chain under
        this key.  Returns None when the packet is not safely cacheable
        (unknown header layer or unhashable metadata).
        """
        parts: List[Any] = [in_port]
        for h in self.headers:
            cls = h.__class__
            if cls is IPv4Header:
                parts.append(("ip", h.src, h.dst, h.proto, h.dscp, h.ttl))
            elif cls is UdpHeader:
                parts.append(("udp", h.sport, h.dport))
            elif cls is TcpHeader:
                parts.append(("tcp", h.sport, h.dport))
            elif cls is GtpuHeader:
                parts.append(("gtpu", h.teid, h.tunnel_src, h.tunnel_dst))
            else:
                return None
        if self.metadata:
            try:
                parts.append(tuple(sorted(self.metadata.items())))
            except TypeError:
                return None
        key = tuple(parts)
        try:
            hash(key)
        except TypeError:
            return None
        return key


def ip_packet(src: str, dst: str, proto: int = PROTO_UDP, sport: int = 0,
              dport: int = 0, payload_bytes: int = 1400, dscp: int = 0) -> Packet:
    """Convenience constructor for a plain UE IP packet."""
    pkt = Packet(payload_bytes=payload_bytes)
    pkt.headers.append(IPv4Header(src=src, dst=dst, proto=proto, dscp=dscp))
    if proto == PROTO_UDP:
        pkt.headers.append(UdpHeader(sport=sport, dport=dport))
    elif proto == PROTO_TCP:
        pkt.headers.append(TcpHeader(sport=sport, dport=dport))
    return pkt


def gtpu_encap(pkt: Packet, teid: int, tunnel_src: str, tunnel_dst: str) -> Packet:
    """Encapsulate ``pkt`` in a GTP-U tunnel (outer IP/UDP/GTP-U)."""
    pkt.push(GtpuHeader(teid=teid, tunnel_src=tunnel_src, tunnel_dst=tunnel_dst))
    pkt.push(UdpHeader(sport=GTPU_PORT, dport=GTPU_PORT))
    pkt.push(IPv4Header(src=tunnel_src, dst=tunnel_dst, proto=PROTO_UDP))
    return pkt


def gtpu_decap(pkt: Packet) -> Packet:
    """Strip the outer IP/UDP/GTP-U layers, exposing the inner packet."""
    if not isinstance(pkt.outermost(), IPv4Header):
        raise ValueError("outermost header is not the tunnel's outer IP")
    outer_ip = pkt.pop()
    outer_udp = pkt.pop()
    if not isinstance(outer_udp, UdpHeader) or outer_udp.dport != GTPU_PORT:
        raise ValueError("not a GTP-U packet (outer UDP dport != 2152)")
    gtpu = pkt.pop()
    if not isinstance(gtpu, GtpuHeader):
        raise ValueError("missing GTP-U header beneath outer UDP")
    pkt.metadata["decapped_teid"] = gtpu.teid
    pkt.metadata["decapped_from"] = outer_ip.src
    return pkt
