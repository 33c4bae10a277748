"""OpenFlow-like control messages for programming the software switch.

Magma's ``pipelined`` service programs OVS through OpenFlow; our
data-plane-configuration service programs :class:`SoftwareSwitch` through
these messages.  Keeping the control interface message-based (rather than
direct method calls) preserves the paper's architectural point: if the
forwarding engine were swapped, only the data-plane-configuration component
would change (§3.5).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..record import record
from .actions import Action
from .matcher import FlowMatch


@record(frozen=True)
class FlowMod:
    """Add or delete flow rules in a table."""

    ADD = "add"
    DELETE = "delete"
    DELETE_BY_COOKIE = "delete_by_cookie"

    command: str
    table_id: int = 0
    priority: int = 0
    match: Optional[FlowMatch] = None
    actions: Sequence[Action] = ()
    cookie: Any = None


@record(frozen=True)
class MeterMod:
    """Add, modify, or delete a token-bucket meter."""

    ADD = "add"
    MODIFY = "modify"
    DELETE = "delete"

    command: str
    meter_id: int
    rate_mbps: float = 0.0
    burst_bytes: int = 125_000


@record(frozen=True)
class StatsRequest:
    """Request flow stats, optionally filtered by cookie."""

    cookie: Any = None
    table_id: Optional[int] = None


@record(frozen=True)
class StatsReply:
    """Per-rule stats snapshot."""

    entries: Sequence["FlowStatsEntry"]


@record(frozen=True)
class FlowStatsEntry:
    table_id: int
    cookie: Any
    priority: int
    packets: int
    bytes: int


@record(frozen=True)
class FlowBundle:
    """A group of FlowMod/MeterMod messages applied atomically, in order.

    Mirrors the OpenFlow 1.4 bundle mechanism ``pipelined`` uses to commit
    a session's rules as one transaction: the switch validates every mod
    first and applies either all of them or none.  Consecutive rule ADDs
    are batched per table, so installing thousands of sessions costs one
    sort instead of one ordered insertion per rule.
    """

    mods: Sequence[Any] = ()


@record(frozen=True)
class BundleReply:
    """Result of an applied bundle."""

    mods_applied: int
    rules_added: int


@record(frozen=True)
class BarrierRequest:
    """Complete all preceding mods before replying (ordering fence)."""
