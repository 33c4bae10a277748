"""timer-leak: every kernel timer handle must be revoked on all paths.

PR 6 hand-fixed four bugs of one shape: a guard/deadline timer scheduled
before a yield point was never cancelled on the losing side of a race, so
a drained run carried rotted 15s guards (and a million-UE run carried a
million of them).  The fix pattern is mechanical — revoke the handle in a
``finally`` — and this rule makes it an invariant instead of a review
item.

For each ``h = sim.schedule(...)`` / ``schedule_at`` / ``schedule_periodic``
binding a plain local, a backward must-analysis over the function's CFG
(:mod:`repro.analysis.cfg`) demands that *every* path from the binding to
function exit reaches one of:

- ``h.cancel()`` — the handle is revoked;
- an *escape* — ``h`` is stored into an attribute/subscript/collection,
  passed to a call, returned, yielded, aliased, or captured by a nested
  function: ownership moved somewhere this intra-procedural analysis
  cannot see, so the obligation moves with it (the RPC layer's
  ``record.timer = sim.schedule(...)`` pattern).

Rebinding ``h`` before revoking kills the only reference — those paths
are leaks too.  Yield points carry exception edges in the CFG, so
``schedule(); yield; cancel()`` is correctly flagged (an interrupt at the
yield skips the cancel) while the ``try/finally`` revoke is correctly
accepted: this is precisely the PR 6 bug class, now machine-checked.

Two companion checks need no dataflow:

- a schedule call whose handle is discarded outright (a bare expression
  statement) — fire-and-forget work belongs on ``call_later()``, which
  builds no handle and is not tracked by kernel hooks;
- a handle-shaped binding from ``call_later()``, which returns ``None``
  by design — the author wanted ``schedule()``.

A conditional revoke guarded by the handle itself (``if h is not None:
h.cancel()``) is recognised: the branch test is the liveness check, so
the test node counts as covering.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from ..cfg import CfgNode, build_cfg
from ..core import FileContext, Finding, Rule, dotted_name, register
from ..dataflow import must_reach

SCHEDULE_METHODS = ("schedule", "schedule_at", "schedule_periodic")
REVOKE_METHODS = ("cancel",)
# Receiver heads that identify the kernel scheduler: ``sim.schedule`` and
# ``self.sim.schedule`` cover this codebase's convention.
_SIM_HEADS = ("sim", "simulator", "_sim")
# Handle attribute reads that are not an ownership transfer.
_HANDLE_READS = ("active", "when", "seq")


def _scheduler_call(node: ast.AST) -> Optional[str]:
    """The schedule-method name when ``node`` is a handle-returning kernel
    scheduling call, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in SCHEDULE_METHODS:
        return None
    receiver = dotted_name(func.value)
    if receiver is None:
        return None
    if receiver.split(".")[-1] in _SIM_HEADS:
        return func.attr
    return None


def _call_later_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "call_later":
        return False
    receiver = dotted_name(func.value)
    return receiver is not None and receiver.split(".")[-1] in _SIM_HEADS


def _walk_exprs(root: ast.AST) -> Iterator[ast.AST]:
    """Walk an expression tree without entering nested function scopes."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _stmt_exprs(node: CfgNode) -> List[ast.AST]:
    """The expression roots a CFG node evaluates (test nodes evaluate only
    their condition/iterator, not their body)."""
    if node.stmt is None:
        return []
    if node.kind == "test":
        return [node.expr] if node.expr is not None else []
    if node.kind in ("except", "finally"):
        return []
    roots: List[ast.AST] = []
    for field in node.stmt._fields:
        value = getattr(node.stmt, field, None)
        if isinstance(value, ast.expr):
            roots.append(value)
        elif isinstance(value, list):
            roots.extend(v for v in value if isinstance(v, ast.expr))
    return roots


def _revokes(node: CfgNode, var: str) -> bool:
    """True when the node calls ``var.cancel()`` — or is a
    branch test on ``var`` guarding such a call (``if h: h.cancel()``)."""
    for root in _stmt_exprs(node):
        for expr in _walk_exprs(root):
            if (isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr in REVOKE_METHODS
                    and isinstance(expr.func.value, ast.Name)
                    and expr.func.value.id == var):
                return True
    if (node.kind == "test" and isinstance(node.stmt, ast.If)
            and node.expr is not None):
        mentions = any(isinstance(e, ast.Name) and e.id == var
                       for e in _walk_exprs(node.expr))
        if mentions:
            for stmt in node.stmt.body:
                for expr in ast.walk(stmt):
                    if (isinstance(expr, ast.Call)
                            and isinstance(expr.func, ast.Attribute)
                            and expr.func.attr in REVOKE_METHODS
                            and isinstance(expr.func.value, ast.Name)
                            and expr.func.value.id == var):
                        return True
    return False


def _escapes(node: CfgNode, var: str) -> bool:
    """True when ownership of ``var`` leaves this scope at ``node``."""
    for root in _stmt_exprs(node):
        # Parent-aware scan: find Name loads of ``var`` and classify the
        # context they appear in.
        stack: List[Tuple[ast.AST, Optional[ast.AST]]] = [(root, None)]
        while stack:
            expr, parent = stack.pop()
            if isinstance(expr, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                # Closure capture: does the nested scope read ``var``?
                for inner in ast.walk(expr):
                    if isinstance(inner, ast.Name) and inner.id == var:
                        return True
                continue
            if isinstance(expr, ast.Name) and expr.id == var \
                    and isinstance(expr.ctx, ast.Load):
                if isinstance(parent, ast.Attribute):
                    # ``h.cancel()`` / ``h.active`` — a read, not a transfer
                    # (unknown attributes are conservatively reads too).
                    continue
                if isinstance(parent, (ast.Compare, ast.BoolOp, ast.UnaryOp)):
                    continue  # truthiness / identity tests
                # Everything else hands the value somewhere: call argument,
                # collection element, return/yield value, RHS of a store.
                return True
            for child in ast.iter_child_nodes(expr):
                stack.append((child, expr))
    # A store through an attribute/subscript target with ``var`` anywhere on
    # the RHS was caught above (the RHS Name's parent is the Assign value
    # expression or the Name itself is the value root).
    if isinstance(node.stmt, (ast.Assign, ast.AnnAssign)) and node.kind == "stmt":
        value = node.stmt.value
        if isinstance(value, ast.Name) and value.id == var:
            return True  # plain alias ``other = h``
    return False


def _rebinds(node: CfgNode, var: str) -> bool:
    stmt = node.stmt
    if node.kind == "test" and isinstance(stmt, (ast.For, ast.AsyncFor)):
        return any(isinstance(t, ast.Name) and t.id == var
                   for t in ast.walk(stmt.target))
    if node.kind != "stmt":
        return False
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            for t in ast.walk(target):
                if isinstance(t, ast.Name) and t.id == var \
                        and isinstance(t.ctx, ast.Store):
                    return True
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        t = stmt.target
        if isinstance(t, ast.Name) and t.id == var:
            return True
    elif isinstance(stmt, ast.Delete):
        return any(isinstance(t, ast.Name) and t.id == var
                   for t in stmt.targets)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for t in ast.walk(item.optional_vars):
                    if isinstance(t, ast.Name) and t.id == var:
                        return True
    return False


@register
class TimerLeak(Rule):
    name = "timer-leak"
    code = "REPRO601"
    description = ("schedule()/schedule_periodic() handles must reach "
                   "cancel()/release() on every path (or escape to an "
                   "owner); fire-and-forget work belongs on call_later()")
    invariant = ("no rotted timers: a drained run holds no pending entries "
                 "whose owner already exited (the PR 6 guard-timer bug "
                 "class)")
    exempt_suffixes = ("sim/kernel.py", "sim/sansim.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(ctx, func)

    def _check_function(self, ctx: FileContext,
                        func: ast.AST) -> Iterator[Finding]:
        # Cheap pre-scan before paying for a CFG build.
        interesting = False
        for node in ast.walk(func):
            if _scheduler_call(node) or _call_later_call(node):
                interesting = True
                break
        if not interesting:
            return

        cfg = build_cfg(func)
        creations: List[Tuple[CfgNode, str, str]] = []
        for node in cfg.nodes:
            stmt = node.stmt
            if node.kind != "stmt" or stmt is None:
                continue
            if isinstance(stmt, ast.Expr):
                method = _scheduler_call(stmt.value)
                if method is not None:
                    yield self.finding(
                        ctx, stmt,
                        f"handle from {method}() is discarded; use "
                        f"call_later() for fire-and-forget work or keep "
                        f"the handle and cancel() it")
                continue
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                value = stmt.value
                if value is None:
                    continue
                if _call_later_call(value):
                    yield self.finding(
                        ctx, stmt,
                        "call_later() returns no handle (fire-and-forget "
                        "by design); use schedule() if the callback must "
                        "be cancelable")
                    continue
                method = _scheduler_call(value)
                if method is None:
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                if len(targets) == 1 and isinstance(targets[0], ast.Name):
                    creations.append((node, targets[0].id, method))
                # Attribute/subscript targets transfer ownership at birth;
                # tuple targets are out of scope for the analysis.

        for creation, var, method in creations:
            def covers(n: CfgNode, _var: str = var,
                       _creation: CfgNode = creation) -> bool:
                return n is not _creation and (
                    _revokes(n, _var) or _escapes(n, _var))

            def kills(n: CfgNode, _var: str = var,
                      _creation: CfgNode = creation) -> bool:
                return n is not _creation and _rebinds(n, _var)

            if not must_reach(cfg, creation.index, covers, kills):
                yield self.finding(
                    ctx, creation.stmt,
                    f"timer handle '{var}' from {method}() may leak: "
                    f"cancel()/release() is not reached on every path out "
                    f"of '{getattr(func, 'name', '<fn>')}' (revoke it in a "
                    f"finally, or hand it to an owner)")
