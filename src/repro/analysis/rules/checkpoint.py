"""checkpoint-completeness: every checkpointed dataclass field round-trips.

The crash-recovery failure model (§3.3) only works if ``checkpoint()``
captures *all* of a session record's runtime state and ``restore()``
rebuilds all of it.  A field the serializer never reads is silently
dropped from every snapshot; a field the restorer never sets silently
reverts to its default after recovery.  PR 1's ECM ``connected`` bug was
exactly this shape, and this rule makes the class mechanical.

Detection: within one module, find classes defining both ``checkpoint``
and ``restore`` methods.  A ``@record`` (or ``@dataclass``) in the same
module whose field names overlap heavily with the attributes
``checkpoint`` reads is taken to be the serialized record.  Each of its
fields must then be

- read somewhere in ``checkpoint`` (attribute load), and
- written somewhere in ``restore`` — as a keyword argument to the
  dataclass constructor or as an attribute assignment.

Findings anchor on the field's definition line, so an intentionally
ephemeral field is excluded with a same-line
``# reprolint: disable=checkpoint-completeness`` pragma.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from ..core import FileContext, Finding, Rule, register

#: Minimum field-name overlap before a dataclass counts as "the record
#: being checkpointed" (guards against coincidental one-field matches).
MIN_OVERLAP = 3

_DATACLASS_DECORATORS = {"dataclass", "record"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else \
            target.id if isinstance(target, ast.Name) else None
        if name in _DATACLASS_DECORATORS:
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, int]]:
    """(name, lineno) for every non-ClassVar annotated field."""
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        annotation = ast.dump(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append((stmt.target.id, stmt.lineno))
    return fields


def _method(node: ast.ClassDef, name: str):
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and stmt.name == name:
            return stmt
    return None


def _attribute_reads(func: ast.AST) -> Set[str]:
    return {n.attr for n in ast.walk(func)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _restore_writes(func: ast.AST, record_class: str) -> Set[str]:
    """Field names ``restore`` populates for the given record class."""
    written: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            target = node.func
            name = target.attr if isinstance(target, ast.Attribute) else \
                target.id if isinstance(target, ast.Name) else None
            if name == record_class:
                written.update(kw.arg for kw in node.keywords
                               if kw.arg is not None)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            written.add(node.attr)
    return written


@register
class CheckpointCompleteness(Rule):
    name = "checkpoint-completeness"
    code = "REPRO101"
    description = ("every field of a checkpointed dataclass must be read by "
                   "checkpoint() and written back by restore()")
    invariant = ("crash-recovery: snapshots capture all session runtime "
                 "state (§3.3 small fault domains)")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        dataclasses: Dict[str, List[Tuple[str, int]]] = {}
        pairs = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                fields = _dataclass_fields(node)
                if fields:
                    dataclasses[node.name] = fields
            checkpoint = _method(node, "checkpoint")
            restore = _method(node, "restore")
            if checkpoint is not None and restore is not None:
                pairs.append((node, checkpoint, restore))
        for owner, checkpoint, restore in pairs:
            reads = _attribute_reads(checkpoint)
            for record_class, fields in dataclasses.items():
                field_names = {name for name, _ in fields}
                overlap = field_names & reads
                if len(overlap) < max(MIN_OVERLAP, len(field_names) // 2):
                    continue
                writes = _restore_writes(restore, record_class)
                for field_name, lineno in fields:
                    if field_name not in reads:
                        yield self.finding(
                            ctx, lineno,
                            f"field '{field_name}' of {record_class} is never "
                            f"read in {owner.name}.checkpoint(); it is "
                            f"silently dropped from every snapshot")
                    if field_name not in writes:
                        yield self.finding(
                            ctx, lineno,
                            f"field '{field_name}' of {record_class} is never "
                            f"written in {owner.name}.restore(); restored "
                            f"records silently revert to the field default")
