"""kernel-owned-state: only the kernel writes the clock and event outcomes.

``Simulator.now`` and an event's ``triggered`` / ``ok`` / ``value`` are
plain slots, so every hot path reads them without a property call.  They
are read-only by contract all the same: the dispatch loop alone moves the
clock, and ``Event.succeed`` / ``fail`` alone set an outcome, exactly
once, and hand the waiters to the kernel.  A store from anywhere else
moves time under queued entries, or marks an event done that never
resumes its waiters.

Receivers are recognised by this codebase's conventions:

- ``<x>.now`` where ``x`` is named like the scheduler (``sim``,
  ``simulator``, ``_sim``, also as the tail of ``self.sim``);
- ``<x>.triggered`` on any receiver: the word is the kernel's;
- ``<x>.ok`` / ``<x>.value`` where ``x`` is event-shaped: ``self`` in a
  subclass of an event class, a name the same scope binds from an event
  class or factory (``sim.event()``, ``timeout``, ``spawn``, ``any_of``),
  or a receiver the same scope calls ``succeed`` / ``fail`` /
  ``add_callback`` / ``watch`` on.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..core import FileContext, Finding, Rule, dotted_name, register, walk_own_scope

_SIM_HEADS = ("sim", "simulator", "_sim")
_EVENT_CLASSES = {"Event", "Timeout", "Process", "AnyOf"}
_EVENT_FACTORIES = {"event", "timeout", "spawn", "any_of"}
_EVENT_METHODS = {"succeed", "fail", "add_callback", "watch"}
_OUTCOME = ("triggered", "ok", "value")


def _event_names(scope: ast.AST, nodes: List[ast.AST],
                 event_methods: Set[ast.AST]) -> Set[str]:
    """Dotted receivers the scope shows to be events."""
    names = {"self"} if scope in event_methods else set()
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (isinstance(func, ast.Name) and func.id in _EVENT_CLASSES) or \
                    (isinstance(func, ast.Attribute)
                     and func.attr in _EVENT_FACTORIES):
                names.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _EVENT_METHODS:
            receiver = dotted_name(node.func.value)
            if receiver is not None:
                names.add(receiver)
    return names


@register
class KernelOwnedState(Rule):
    name = "kernel-owned-state"
    code = "REPRO203"
    description = ("ban stores to sim.now and to an event's triggered/ok/"
                   "value outside sim/kernel.py")
    invariant = ("deterministic replay: only the dispatch loop moves the "
                 "clock, and only succeed()/fail() trigger an event")
    exempt_suffixes = ("sim/kernel.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        event_methods: Set[ast.AST] = set()
        for cls in ast.walk(ctx.tree):
            if isinstance(cls, ast.ClassDef) and any(
                    (dotted_name(base) or "").split(".")[-1] in _EVENT_CLASSES
                    for base in cls.bases):
                event_methods.update(
                    item for item in cls.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)))
        scopes = [ctx.tree] + [
            node for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda))]
        for scope in scopes:
            nodes = list(walk_own_scope(scope))
            events = None  # worked out on the first outcome store only
            for node in nodes:
                if not (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, (ast.Store, ast.Del))):
                    continue
                receiver = dotted_name(node.value)
                if node.attr == "now":
                    if receiver and receiver.split(".")[-1] in _SIM_HEADS:
                        yield self.finding(
                            ctx, node,
                            f"store to {receiver}.now outside the kernel: "
                            f"only the dispatch loop moves the clock; "
                            f"schedule the work at the time instead")
                elif node.attr in _OUTCOME:
                    if node.attr != "triggered":
                        if events is None:
                            events = _event_names(scope, nodes, event_methods)
                        if receiver not in events:
                            continue
                    yield self.finding(
                        ctx, node,
                        f"store to {receiver or 'an event'}.{node.attr} "
                        f"outside the kernel: an event's outcome is set by "
                        f"succeed()/fail(), which also resume its waiters")
