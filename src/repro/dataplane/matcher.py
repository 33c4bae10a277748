"""Flow matching: the classifier half of a match/action rule.

A :class:`FlowMatch` is a conjunction of field predicates; ``None`` fields
are wildcards.  IP address fields accept either exact addresses or
``"a.b.c.d/len"`` prefixes.  This covers the matching vocabulary Magma's
``pipelined`` uses: per-UE IP, tunnel id (TEID), direction (port), transport
5-tuple pieces, and scratch metadata registers set by earlier tables.
"""

from __future__ import annotations

import ipaddress
from typing import Any, Dict, Optional, Tuple

from ..record import record
from .packet import GtpuHeader, Packet, TcpHeader, UdpHeader

#: Hashing a key by looking it up here costs no call (``hash`` would).
_NO_KEYS: frozenset = frozenset()


def _ip_matches(pattern: str, address: str) -> bool:
    """Exact or CIDR-prefix match."""
    if "/" in pattern:
        try:
            network = ipaddress.ip_network(pattern, strict=False)
            return ipaddress.ip_address(address) in network
        except ValueError:
            return False
    return pattern == address


@record(frozen=True)
class FlowMatch:
    """A conjunction of header-field predicates; None means wildcard."""

    in_port: Optional[str] = None
    ip_src: Optional[str] = None
    ip_dst: Optional[str] = None
    ip_proto: Optional[int] = None
    dscp: Optional[int] = None
    l4_sport: Optional[int] = None
    l4_dport: Optional[int] = None
    tun_id: Optional[int] = None
    registers: Optional[Dict[str, Any]] = None

    def matches(self, pkt: Packet, in_port: Optional[str] = None) -> bool:
        if self.in_port is not None and self.in_port != in_port:
            return False
        ip = pkt.inner_ip()
        if self.ip_src is not None:
            if ip is None or not _ip_matches(self.ip_src, ip.src):
                return False
        if self.ip_dst is not None:
            if ip is None or not _ip_matches(self.ip_dst, ip.dst):
                return False
        if self.ip_proto is not None:
            if ip is None or ip.proto != self.ip_proto:
                return False
        if self.dscp is not None:
            if ip is None or ip.dscp != self.dscp:
                return False
        if self.l4_sport is not None or self.l4_dport is not None:
            l4 = pkt.find(UdpHeader) or pkt.find(TcpHeader)
            if l4 is None:
                return False
            if self.l4_sport is not None and l4.sport != self.l4_sport:
                return False
            if self.l4_dport is not None and l4.dport != self.l4_dport:
                return False
        if self.tun_id is not None:
            gtpu = pkt.find(GtpuHeader)
            teid = gtpu.teid if gtpu is not None else pkt.metadata.get("decapped_teid")
            if teid != self.tun_id:
                return False
        if self.registers:
            for reg, expected in self.registers.items():
                if pkt.metadata.get(reg) != expected:
                    return False
        return True

    def classifier_fields(self) -> Optional[Tuple[Tuple[Any, ...], Tuple[Any, ...]]]:
        """``(mask, key)`` for tuple-space search, or None for residue rules.

        ``mask`` names the constrained fields (register fields appear as
        ``("reg", name)``, sorted by name) and ``key`` carries the exact
        values in the same order, so a packet matches iff its extracted
        field tuple for ``mask`` equals ``key``.  Rules that cannot be
        reduced to an exact-match tuple - CIDR prefixes, unhashable
        register values - return None and stay on the table's linear
        residue list.
        """
        # Tuples grown in place, with no call per field: filing a rule
        # runs this for every rule a session installs.
        names = values = ()
        value = self.in_port
        if value is not None:
            names += ("in_port",)
            values += (value,)
        value = self.ip_src
        if value is not None:
            if "/" in value:
                return None
            names += ("ip_src",)
            values += (value,)
        value = self.ip_dst
        if value is not None:
            if "/" in value:
                return None
            names += ("ip_dst",)
            values += (value,)
        value = self.ip_proto
        if value is not None:
            names += ("ip_proto",)
            values += (value,)
        value = self.dscp
        if value is not None:
            names += ("dscp",)
            values += (value,)
        value = self.l4_sport
        if value is not None:
            names += ("l4_sport",)
            values += (value,)
        value = self.l4_dport
        if value is not None:
            names += ("l4_dport",)
            values += (value,)
        value = self.tun_id
        if value is not None:
            names += ("tun_id",)
            values += (value,)
        registers = self.registers
        if registers:
            order = [*registers]
            if order[1:]:
                order.sort()
            for reg in order:
                names += (("reg", reg),)
                values += (registers[reg],)
        try:
            values in _NO_KEYS
        except TypeError:       # an unhashable register value
            return None
        return names, values


MATCH_ALL = FlowMatch()
