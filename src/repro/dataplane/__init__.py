"""OVS-like programmable software data plane (paper §3.5).

The switch is programmed through OpenFlow-like messages
(:mod:`repro.dataplane.openflow`) by the AGW's data-plane-configuration
service (:mod:`repro.core.agw.pipelined`), and supports both per-packet and
fluid execution.
"""

from . import actions
from .flowtable import FlowRule, FlowStats, FlowTable
from .matcher import FlowMatch, MATCH_ALL
from .meter import TokenBucketMeter
from .openflow import (
    BarrierRequest,
    BundleReply,
    FlowBundle,
    FlowMod,
    FlowStatsEntry,
    MeterMod,
    StatsReply,
    StatsRequest,
)
from .packet import (
    GTPU_PORT,
    GtpuHeader,
    IPv4Header,
    Packet,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TcpHeader,
    UdpHeader,
    gtpu_decap,
    gtpu_encap,
    ip_packet,
)
from .switch import PipelineError, SoftwareSwitch

__all__ = [
    "BarrierRequest",
    "BundleReply",
    "FlowBundle",
    "FlowMatch",
    "FlowMod",
    "FlowRule",
    "FlowStats",
    "FlowStatsEntry",
    "FlowTable",
    "GTPU_PORT",
    "GtpuHeader",
    "IPv4Header",
    "MATCH_ALL",
    "MeterMod",
    "Packet",
    "PipelineError",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "SoftwareSwitch",
    "StatsReply",
    "StatsRequest",
    "TcpHeader",
    "TokenBucketMeter",
    "UdpHeader",
    "actions",
    "gtpu_decap",
    "gtpu_encap",
    "ip_packet",
]
