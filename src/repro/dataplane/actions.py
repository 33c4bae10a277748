"""Actions: what a matched flow rule does to a packet.

A rule carries an ordered action list.  Action execution is interpreted by
:class:`~repro.dataplane.switch.SoftwareSwitch`; the classes here are plain
declarative records so rules can be installed over the (simulated) OpenFlow
control channel by value.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields
from typing import Any, TypeVar

_R = TypeVar("_R")


def frozen_record(cls: "type[_R]") -> "type[_R]":
    """``@dataclass(frozen=True)`` with an ``__init__`` that is twice as
    fast: the data plane's control messages and actions.

    A frozen dataclass's generated ``__init__`` stores each field through
    ``object.__setattr__``; this one writes the instance ``__dict__`` key
    by key.  It replaces the one ``dataclasses`` would compile
    (``init=False``), once per class and the same way, so importing runs
    as many ``exec`` calls as before.  Assignment still raises
    ``FrozenInstanceError``, and ``__eq__``, ``__hash__`` and ``__repr__``
    are the generated ones, over the one field list.
    """
    cls = dataclass(frozen=True, init=False)(cls)
    params, stores, namespace = ["self"], [], {}
    for index, spec in enumerate(fields(cls)):
        if spec.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{spec.name}: a record field "
                            "takes a plain default, not a factory")
        if spec.default is MISSING:
            params.append(spec.name)
        else:
            namespace[f"default{index}"] = spec.default
            params.append(f"{spec.name}=default{index}")
        stores.append(f"    d[{spec.name!r}] = {spec.name}\n")
    body = "    d = self.__dict__\n" + "".join(stores) if stores else "    pass\n"
    source = f"def __init__({', '.join(params)}):\n{body}"
    # Filed under the class's module, so a profile charges it there.
    filename = getattr(sys.modules.get(cls.__module__), "__file__", None)
    exec(compile(source, filename or "<string>", "exec"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


class Action:
    """Marker base class for all actions."""

    __slots__ = ()


@frozen_record
class Output(Action):
    """Emit the packet on a named port."""

    port: str


@frozen_record
class Drop(Action):
    """Discard the packet (terminal)."""


@frozen_record
class GotoTable(Action):
    """Continue pipeline processing at another table."""

    table_id: int


@frozen_record
class SetRegister(Action):
    """Write a scratch metadata register (visible to later tables)."""

    register: str
    value: Any


@frozen_record
class SetDscp(Action):
    """Rewrite the innermost IP DSCP (QoS marking)."""

    dscp: int


@frozen_record
class Meter(Action):
    """Subject the packet to a token-bucket meter; over-rate drops."""

    meter_id: int


@frozen_record
class PushGtpu(Action):
    """Encapsulate in GTP-U toward a tunnel endpoint (e.g. the eNodeB)."""

    teid: int
    tunnel_src: str
    tunnel_dst: str


@frozen_record
class PopGtpu(Action):
    """Decapsulate a GTP-U packet (uplink from the eNodeB)."""
