"""Intra-procedural control-flow graphs for reprolint's dataflow rules.

The per-node AST rules (REPRO1xx-5xx) check properties a single statement
can witness.  The timer-leak and yield-atomicity families (REPRO6xx) are
*path* properties — "every path out of this scope cancels the handle",
"no read-modify-write straddles a yield" — so they need a CFG.

The graph is statement-level: one :class:`CfgNode` per simple statement
(assignments, expression statements, ``return``, ...) plus one per branch
test (``if``/``while`` conditions, ``for`` iterators) and synthetic
``entry``/``exit``/``except``/``finally`` landing nodes.  Compound
statements contribute structure (edges), not nodes.

Two modelling decisions matter for soundness of the rules built on top:

- **Yield points throw.**  In this kernel, interrupts and failed awaited
  events surface as exceptions raised *at the yield* (see
  ``Process._step``).  Every statement whose own expressions contain a
  ``yield``/``yield from``/``await`` therefore gets exception edges to the
  innermost enclosing handler/finally landings — or straight to ``exit``
  when there are none.  This is exactly why ``schedule(); yield; cancel()``
  leaks and the PR 6 ``finally``-revoke pattern does not, and the CFG makes
  that difference visible to a must-analysis.
- **``finally`` runs on every exit.**  The finally body is built once; its
  entry is reachable from normal completion, from every handler, from the
  exceptional landing, and from ``return`` statements inside the try
  (which are routed through the innermost enclosing finally).  Its exits
  continue both to the code after the ``try`` and to the next outer
  landing (or ``exit``), over-approximating propagation.  Extra infeasible
  paths only make the must-analysis more conservative, never unsound.

Plain (non-yield) calls are deliberately *not* treated as throwing: the
rules built here target coroutine interleaving hazards, and modelling
every call as a potential raise would drown them in infeasible paths.
"""

from __future__ import annotations

import ast
from typing import List, Optional

__all__ = ["CfgNode", "Cfg", "build_cfg", "stmt_has_yield"]

# Statements that become a single CFG node as-is.
_SIMPLE = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Pass,
           ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Assert,
           ast.Delete, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _expr_has_yield(node: Optional[ast.AST]) -> bool:
    """True when an expression tree contains a yield point in its own scope
    (nested lambdas/defs excluded — their yields belong to them)."""
    if node is None:
        return False
    stack = [node]
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        if isinstance(child, (ast.Yield, ast.YieldFrom, ast.Await)):
            return True
        stack.extend(ast.iter_child_nodes(child))
    return False


def stmt_has_yield(stmt: ast.stmt) -> bool:
    """True when a *simple* statement's expressions contain a yield point."""
    for field in stmt._fields:
        value = getattr(stmt, field, None)
        if isinstance(value, ast.expr) and _expr_has_yield(value):
            return True
        if isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr) and _expr_has_yield(item):
                    return True
    return False


class CfgNode:
    """One vertex: a simple statement, a branch test, or a landing pad."""

    __slots__ = ("index", "kind", "stmt", "expr", "succ", "pred", "is_yield")

    def __init__(self, index: int, kind: str, stmt: Optional[ast.AST],
                 expr: Optional[ast.expr] = None):
        self.index = index
        self.kind = kind          # entry|exit|stmt|test|except|finally
        self.stmt = stmt          # owning ast statement (None for entry/exit)
        self.expr = expr          # the test/iter expression for kind=="test"
        self.succ: List[int] = []
        self.pred: List[int] = []
        self.is_yield = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = getattr(self.stmt, "lineno", "?")
        return f"<CfgNode #{self.index} {self.kind} L{where} -> {self.succ}>"


class Cfg:
    """The built graph.  ``nodes[0]`` is entry, ``nodes[1]`` is exit."""

    ENTRY = 0
    EXIT = 1

    def __init__(self, func: ast.AST):
        self.func = func
        self.nodes: List[CfgNode] = []

    @property
    def entry(self) -> CfgNode:
        return self.nodes[self.ENTRY]

    @property
    def exit(self) -> CfgNode:
        return self.nodes[self.EXIT]


class _Builder:
    def __init__(self, func: ast.AST):
        self.cfg = Cfg(func)
        self._new("entry", None)
        self._new("exit", None)
        # (continue_target_index, break_collector) per enclosing loop.
        self._loops: List[tuple] = []
        # Exception landing node indices for the innermost try region.
        self._landings: List[List[int]] = []
        # Innermost enclosing finally landing (for return routing).
        self._finallies: List[int] = []

    def _new(self, kind: str, stmt: Optional[ast.AST],
             expr: Optional[ast.expr] = None) -> CfgNode:
        node = CfgNode(len(self.cfg.nodes), kind, stmt, expr)
        self.cfg.nodes.append(node)
        return node

    def _edge(self, src: int, dst: int) -> None:
        nodes = self.cfg.nodes
        if dst not in nodes[src].succ:
            nodes[src].succ.append(dst)
            nodes[dst].pred.append(src)

    def _connect(self, preds: List[int], dst: int) -> None:
        for src in preds:
            self._edge(src, dst)

    def _exception_targets(self) -> List[int]:
        """Where an exception raised here lands: the innermost try region's
        landing pads, or function exit when uncovered."""
        if self._landings:
            return self._landings[-1]
        return [Cfg.EXIT]

    def _mark_yield(self, node: CfgNode) -> None:
        node.is_yield = True
        for target in self._exception_targets():
            self._edge(node.index, target)

    def build(self) -> Cfg:
        body = getattr(self.cfg.func, "body", [])
        frontier = self._block(body, [Cfg.ENTRY])
        self._connect(frontier, Cfg.EXIT)
        return self.cfg

    def _block(self, stmts: List[ast.stmt], preds: List[int]) -> List[int]:
        for stmt in stmts:
            preds = self._stmt(stmt, preds)
        return preds

    def _stmt(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        if isinstance(stmt, _SIMPLE):
            node = self._new("stmt", stmt)
            self._connect(preds, node.index)
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) and stmt_has_yield(stmt):
                self._mark_yield(node)
            return [node.index]

        if isinstance(stmt, ast.Return):
            node = self._new("stmt", stmt)
            self._connect(preds, node.index)
            if stmt.value is not None and _expr_has_yield(stmt.value):
                self._mark_yield(node)
            # return runs the innermost enclosing finally before leaving.
            if self._finallies:
                self._edge(node.index, self._finallies[-1])
            else:
                self._edge(node.index, Cfg.EXIT)
            return []

        if isinstance(stmt, ast.Raise):
            node = self._new("stmt", stmt)
            self._connect(preds, node.index)
            for target in self._exception_targets():
                self._edge(node.index, target)
            return []

        if isinstance(stmt, ast.Break):
            node = self._new("stmt", stmt)
            self._connect(preds, node.index)
            if self._loops:
                self._loops[-1][1].append(node.index)
            return []

        if isinstance(stmt, ast.Continue):
            node = self._new("stmt", stmt)
            self._connect(preds, node.index)
            if self._loops:
                self._edge(node.index, self._loops[-1][0])
            return []

        if isinstance(stmt, ast.If):
            test = self._new("test", stmt, stmt.test)
            self._connect(preds, test.index)
            if _expr_has_yield(stmt.test):
                self._mark_yield(test)
            then_frontier = self._block(stmt.body, [test.index])
            if stmt.orelse:
                else_frontier = self._block(stmt.orelse, [test.index])
            else:
                else_frontier = [test.index]
            return then_frontier + else_frontier

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header_expr = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            header = self._new("test", stmt, header_expr)
            self._connect(preds, header.index)
            if _expr_has_yield(header_expr):
                self._mark_yield(header)
            breaks: List[int] = []
            self._loops.append((header.index, breaks))
            body_frontier = self._block(stmt.body, [header.index])
            self._connect(body_frontier, header.index)  # back edge
            self._loops.pop()
            if stmt.orelse:
                after = self._block(stmt.orelse, [header.index])
            else:
                after = [header.index]
            return after + breaks

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = self._new("stmt", stmt)
            self._connect(preds, node.index)
            if any(_expr_has_yield(item.context_expr) for item in stmt.items):
                self._mark_yield(node)
            return self._block(stmt.body, [node.index])

        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)

        # Unknown/newer statement forms (e.g. ``match``): treat as an opaque
        # simple node so the graph stays connected and analyses stay sound
        # on the rest of the function.
        node = self._new("stmt", stmt)
        self._connect(preds, node.index)
        return [node.index]

    def _try(self, stmt: ast.Try, preds: List[int]) -> List[int]:
        fin_landing: Optional[CfgNode] = None
        if stmt.finalbody:
            fin_landing = self._new("finally", stmt)
        handler_landings = [self._new("except", handler)
                            for handler in stmt.handlers]

        # Exceptions inside the body land on the handlers (and the finally
        # pad, covering non-matching exception types when one exists).
        body_targets = [n.index for n in handler_landings]
        if fin_landing is not None:
            body_targets = body_targets + [fin_landing.index]
        self._landings.append(body_targets)
        if fin_landing is not None:
            self._finallies.append(fin_landing.index)
        body_frontier = self._block(stmt.body, preds)
        if stmt.orelse:
            body_frontier = self._block(stmt.orelse, body_frontier)
        self._landings.pop()

        # Exceptions inside a handler land on this try's finally (if any),
        # else on the next outer region.
        normal_exits = list(body_frontier)
        for handler, landing in zip(stmt.handlers, handler_landings):
            if fin_landing is not None:
                self._landings.append([fin_landing.index])
            normal_exits.extend(self._block(handler.body, [landing.index]))
            if fin_landing is not None:
                self._landings.pop()

        if fin_landing is None:
            return normal_exits

        self._finallies.pop()
        # The finally body runs after normal completion, after each handler,
        # and on the exceptional path (the landing pad).
        self._connect(normal_exits, fin_landing.index)
        fin_frontier = self._block(stmt.finalbody, [fin_landing.index])
        # Exceptional continuation: propagate to the outer landing / exit.
        # (Also an infeasible normal-path edge; harmless for must-analyses.)
        if self._finallies:
            outer = [self._finallies[-1]]
        else:
            outer = self._exception_targets()
        for target in outer:
            self._connect(fin_frontier, target)
        return fin_frontier


def build_cfg(func: ast.AST) -> Cfg:
    """Build the CFG for one ``FunctionDef``/``AsyncFunctionDef`` body."""
    return _Builder(func).build()
