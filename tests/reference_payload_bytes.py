"""Reference wire sizers: the two walkers ``repro.net.rpc.payload_bytes``
replaced, kept out of the product.

- :func:`reference_payload_bytes` is the recursive rule-per-line
  ``isinstance`` ladder the sizer started as: each rule is one line, in
  rule order, so it is the plainest statement of the size rules.
- :func:`iterative_payload_bytes` is the single-pass walker that came
  next: one depth-first loop over a stack of container iterators,
  dispatching on exact type, with an ``isinstance`` fallback.  It asks
  ``dataclasses`` for an instance's fields every time instead of sharing
  the product's per-type plans, so a wrong plan cannot hide in both.
  The product now recurses one frame per container and runs a compiled
  sizer per dataclass type (DESIGN.md §6.9).

``test_rpc_payload_bytes.py`` checks the product equals both on every
rule's edge and on hypothesis-built nested payloads.
"""

import dataclasses
import itertools
from typing import Any, Iterable, Optional, Tuple


def reference_payload_bytes(obj: Any) -> int:
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, str):
        return 2 + len(obj.encode("utf-8"))
    if isinstance(obj, (bytes, bytearray)):
        return 2 + len(obj)
    if isinstance(obj, dict):
        return 2 + sum(reference_payload_bytes(k) + reference_payload_bytes(v)
                       for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 2 + sum(reference_payload_bytes(item) for item in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return 2 + sum(reference_payload_bytes(f.name)
                       + reference_payload_bytes(getattr(obj, f.name))
                       for f in dataclasses.fields(obj))
    # Opaque object: charge a fixed envelope rather than guessing from a
    # repr (which could embed memory addresses and break determinism).
    return 16


def iterative_payload_bytes(obj: Any) -> int:
    total = 0
    stack = [iter((obj,))]
    while stack:
        for node in stack[-1]:
            kind = type(node)
            if kind is str:
                # UTF-8 length without encoding: ASCII is one byte a char.
                total += 2 + (len(node) if node.isascii()
                              else len(node.encode("utf-8")))
            elif kind is float or kind is int:
                total += 8
            elif kind is dict:
                total += 2
                stack.append(itertools.chain(node, node.values()))
                break
            elif kind is list or kind is tuple:
                total += 2
                stack.append(iter(node))
                break
            elif node is None or kind is bool:
                total += 1
            elif kind is bytes:
                total += 2 + len(node)
            else:
                own, members = _other_bytes(node)
                total += own
                if members is not None:
                    stack.append(iter(members))
                    break
        else:
            stack.pop()
    return total


def _other_bytes(node: Any) -> Tuple[int, Optional[Iterable[Any]]]:
    """``(own bytes, members still to size or None)`` by the rule order;
    a dataclass's members are its field names, then its field values."""
    if isinstance(node, (int, float)):
        return 8, None
    if isinstance(node, str):
        return 2 + len(node.encode("utf-8")), None
    if isinstance(node, (bytes, bytearray)):
        return 2 + len(node), None
    if isinstance(node, dict):
        return 2, itertools.chain.from_iterable(node.items())
    if isinstance(node, (list, tuple, set, frozenset)):
        return 2, node
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        names = [f.name for f in dataclasses.fields(node)]
        return 2, names + [getattr(node, name) for name in names]
    return 16, None
