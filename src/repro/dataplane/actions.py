"""Actions: what a matched flow rule does to a packet.

A rule carries an ordered action list.  Action execution is interpreted by
:class:`~repro.dataplane.switch.SoftwareSwitch`; the classes here are plain
declarative records so rules can be installed over the (simulated) OpenFlow
control channel by value.
"""

from __future__ import annotations

from typing import Any

from ..record import record


class Action:
    """Marker base class for all actions."""

    __slots__ = ()


@record(frozen=True)
class Output(Action):
    """Emit the packet on a named port."""

    port: str


@record(frozen=True)
class Drop(Action):
    """Discard the packet (terminal)."""


@record(frozen=True)
class GotoTable(Action):
    """Continue pipeline processing at another table."""

    table_id: int


@record(frozen=True)
class SetRegister(Action):
    """Write a scratch metadata register (visible to later tables)."""

    register: str
    value: Any


@record(frozen=True)
class SetDscp(Action):
    """Rewrite the innermost IP DSCP (QoS marking)."""

    dscp: int


@record(frozen=True)
class Meter(Action):
    """Subject the packet to a token-bucket meter; over-rate drops."""

    meter_id: int


@record(frozen=True)
class PushGtpu(Action):
    """Encapsulate in GTP-U toward a tunnel endpoint (e.g. the eNodeB)."""

    teid: int
    tunnel_src: str
    tunnel_dst: str


@record(frozen=True)
class PopGtpu(Action):
    """Decapsulate a GTP-U packet (uplink from the eNodeB)."""
