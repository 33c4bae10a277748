"""The reprolint framework: findings, rules, pragmas, baselines, drivers.

Design mirrors the flow-verification discipline the paper inherits from
OVS: the invariants are encoded once, mechanically, and every change is
checked against them.  Rules are small AST visitors registered in a
module-level registry; the driver parses each file once and hands every
rule a shared :class:`FileContext`.

Suppression layers (most local wins):

1. ``# reprolint: disable=<rule>[,<rule>...]`` on the finding's line
   (``disable=all`` silences every rule for that line).
2. A baseline file (``--baseline``): JSON fingerprints of known, justified
   findings.  Fingerprints match on (rule, path-suffix, message) — not
   line numbers — so unrelated edits never invalidate them.
"""

from __future__ import annotations

import ast
import hashlib
import json
import multiprocessing
import re
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..record import record

PRAGMA_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\- ]+)")


@record(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str      # rule name, e.g. "checkpoint-completeness"
    code: str      # stable numeric code, e.g. "REPRO101"
    path: str      # posix path as analyzed (relative when possible)
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "code": self.code, "path": self.path,
                "line": self.line, "col": self.col, "message": self.message}

    def fingerprint(self) -> Dict[str, str]:
        """Line-insensitive identity used by baseline suppression."""
        return {"rule": self.rule, "path": self.path, "message": self.message}

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.rule}] {self.message}")


class FileContext:
    """One parsed source file, shared by every rule."""

    def __init__(self, path: str, source: str):
        self.path = Path(path).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._disabled: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = PRAGMA_RE.search(line)
            if match:
                names = {name.strip() for name in match.group(1).split(",")}
                self._disabled[lineno] = {name for name in names if name}

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def disabled_at(self, lineno: int) -> Set[str]:
        return self._disabled.get(lineno, set())

    def is_suppressed(self, rule_name: str, lineno: int) -> bool:
        disabled = self.disabled_at(lineno)
        return rule_name in disabled or "all" in disabled


class Rule:
    """Base class for one invariant check.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Finding` objects (use :meth:`finding` to build them).
    ``exempt_suffixes`` lists posix path suffixes where the rule does not
    apply (e.g. ``sim/rng.py`` owns the ``random`` module).
    """

    name: str = ""
    code: str = ""
    description: str = ""
    invariant: str = ""                 # the paper invariant this guards
    exempt_suffixes: Sequence[str] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        return not any(ctx.path.endswith(suffix)
                       for suffix in self.exempt_suffixes)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: object, message: str) -> Finding:
        line = getattr(node, "lineno", node if isinstance(node, int) else 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(rule=self.name, code=self.code, path=ctx.path,
                       line=int(line), col=int(col), message=message)


_REGISTRY: Dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding a rule to the global registry."""
    if not cls.name or not cls.code:
        raise ValueError(f"rule {cls!r} must define name and code")
    _REGISTRY[cls.name] = cls
    return cls


def all_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Instantiate registered rules (optionally a named subset)."""
    from . import rules as _rules  # noqa: F401  (import registers the rules)
    names = sorted(_REGISTRY, key=lambda n: _REGISTRY[n].code)
    if select is not None:
        wanted = set(select)
        unknown = wanted - set(names)
        if unknown:
            raise KeyError(f"unknown rule(s): {', '.join(sorted(unknown))}")
        names = [n for n in names if n in wanted]
    return [_REGISTRY[n]() for n in names]


# -- baseline --------------------------------------------------------------------------


class Baseline:
    """Suppression file for known, justified findings.

    Format::

        {"version": 1, "suppressions": [
            {"rule": "...", "path": "...", "message": "...", "reason": "..."}
        ]}

    ``path`` matches by suffix in either direction, so baselines written
    from the repo root keep matching when the tool runs from elsewhere.
    One entry may suppress several identical findings in the same file.
    """

    def __init__(self, entries: Optional[List[Dict[str, str]]] = None):
        self.entries = entries or []
        self._used = [False] * len(self.entries)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        entries = data.get("suppressions", [])
        for entry in entries:
            for key in ("rule", "path", "message"):
                if key not in entry:
                    raise ValueError(f"baseline entry missing {key!r}: {entry}")
        return cls(entries)

    @staticmethod
    def write(path: str, findings: Sequence[Finding]) -> None:
        """Write (or refresh) a baseline from the current findings.

        Refreshing an existing file preserves hand-edited ``reason``
        fields for fingerprints that still occur, carries forward prior
        entries the current run did not reproduce (e.g. rules excluded by
        ``--select``), and prunes entries whose source file no longer
        exists — deleted or renamed files used to leave their
        suppressions behind forever.  Run from the same directory the
        baseline's paths are relative to (normally the repo root).
        """
        existing: List[Dict[str, str]] = []
        if Path(path).exists():
            try:
                existing = Baseline.load(path).entries
            except (OSError, ValueError, json.JSONDecodeError):
                existing = []
        reasons = {(e["rule"], e["path"], e["message"]): e.get("reason", "")
                   for e in existing}
        entries = []
        seen = set()
        for finding in findings:
            fp = finding.fingerprint()
            key = (fp["rule"], fp["path"], fp["message"])
            if key in seen:
                continue
            seen.add(key)
            fp["reason"] = reasons.get(key) or "TODO: justify or fix"
            entries.append(fp)
        for entry in existing:
            key = (entry["rule"], entry["path"], entry["message"])
            if key in seen:
                continue
            if not Path(entry["path"]).exists():
                continue  # stale: the file was deleted or renamed
            seen.add(key)
            entries.append(dict(entry))
        payload = {"version": 1, "suppressions": entries}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    def suppresses(self, finding: Finding) -> bool:
        for index, entry in enumerate(self.entries):
            if entry["rule"] != finding.rule:
                continue
            if entry["message"] != finding.message:
                continue
            if (finding.path.endswith(entry["path"])
                    or entry["path"].endswith(finding.path)):
                self._used[index] = True
                return True
        return False

    def unused_entries(self) -> List[Dict[str, str]]:
        return [entry for entry, used in zip(self.entries, self._used)
                if not used]


# -- findings cache --------------------------------------------------------------------


class AnalysisCache:
    """Persistent per-file analysis cache keyed by source content hash.

    The key is ``sha256(rule-key || source)`` where the rule key encodes
    which rules ran, so a cache survives across runs and branches: only
    files whose bytes changed (or runs with a different rule selection)
    are re-parsed and re-analyzed.  The cached value is the full analysis
    result — findings plus any parse error — which subsumes caching the
    AST itself: on a hit neither :func:`ast.parse` nor any rule runs.

    Cached findings are re-homed onto the current display path on read,
    so renaming a file (same content) still reports the new path.  Bump
    :data:`VERSION` whenever a rule's semantics change; it participates
    in the on-disk envelope and stale caches are silently discarded.
    """

    VERSION = 1

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self.entries: Dict[str, Dict[str, object]] = {}
        self.hits = 0
        self.misses = 0
        if path and Path(path).exists():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    data = json.load(handle)
                if data.get("version") == self.VERSION:
                    self.entries = data.get("entries", {})
            except (OSError, ValueError, json.JSONDecodeError):
                self.entries = {}

    @staticmethod
    def rule_key(rules: Sequence[Rule]) -> str:
        return ",".join(sorted(rule.code for rule in rules))

    @staticmethod
    def digest(rule_key: str, source: str) -> str:
        blob = rule_key.encode("utf-8") + b"\0" + source.encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def get(self, digest: str, shown: str):
        """Return ``(findings, parse_error)`` for a hit, else ``None``."""
        entry = self.entries.get(digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        findings = [Finding(**{**raw, "path": shown})  # type: ignore[arg-type]
                    for raw in entry.get("findings", [])]
        error = entry.get("parse_error")
        if error is not None:
            error = {"path": shown, "message": error["message"]}
        return findings, error

    def put(self, digest: str, findings: Sequence[Finding],
            parse_error: Optional[Dict[str, str]]) -> None:
        self.entries[digest] = {
            "findings": [finding.to_dict() for finding in findings],
            "parse_error": parse_error,
        }

    def save(self) -> None:
        if not self.path:
            return
        payload = {"version": self.VERSION, "entries": self.entries}
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")


# -- drivers ---------------------------------------------------------------------------


def analyze_source(source: str, path: str = "<string>",
                   rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    """Run rules over one in-memory source blob (test/fixture entry point)."""
    rules = list(rules) if rules is not None else all_rules()
    ctx = FileContext(path, source)
    findings: List[Finding] = []
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if not ctx.is_suppressed(rule.name, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                yield child
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")


def display_path(path: Path) -> str:
    """Repo-relative posix path when under the cwd, else as given."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


# Worker-process state for the multiprocessing pool: rules are pickled
# once per worker (via the initializer) instead of once per file.
_WORKER_RULES: Optional[List[Rule]] = None


def _pool_init(rules: List[Rule]) -> None:
    global _WORKER_RULES
    _WORKER_RULES = rules


def _pool_analyze(task: Tuple[int, str, str]):
    """Analyze one pre-read source blob; runs inside a pool worker."""
    index, shown, source = task
    assert _WORKER_RULES is not None
    try:
        return index, analyze_source(source, shown, _WORKER_RULES), None
    except SyntaxError as exc:
        return index, [], {"path": shown, "message": str(exc)}


def analyze_paths(paths: Sequence[str],
                  rules: Optional[Sequence[Rule]] = None,
                  jobs: int = 1,
                  cache: Optional[AnalysisCache] = None):
    """Analyze files/trees.  Returns (findings, parse_errors, file_count).

    ``jobs > 1`` fans the per-file work (parse + every rule) out over a
    ``multiprocessing`` pool; files are read in the parent so results
    land deterministically regardless of completion order.  ``cache``
    (an :class:`AnalysisCache`) skips files whose content hash already
    has a result for this rule selection.
    """
    rules = list(rules) if rules is not None else all_rules()
    files = list(iter_python_files(paths))
    results: Dict[int, Tuple[List[Finding], Optional[Dict[str, str]]]] = {}
    tasks: List[Tuple[int, str, str]] = []
    digests: Dict[int, str] = {}
    rule_key = AnalysisCache.rule_key(rules) if cache is not None else ""
    for index, path in enumerate(files):
        shown = display_path(path)
        source = path.read_text(encoding="utf-8")
        if cache is not None:
            digest = AnalysisCache.digest(rule_key, source)
            hit = cache.get(digest, shown)
            if hit is not None:
                results[index] = hit
                continue
            digests[index] = digest
        tasks.append((index, shown, source))
    if jobs > 1 and len(tasks) > 1:
        workers = min(jobs, len(tasks))
        with multiprocessing.Pool(workers, initializer=_pool_init,
                                  initargs=(rules,)) as pool:
            for index, found, error in pool.imap_unordered(
                    _pool_analyze, tasks, chunksize=4):
                results[index] = (found, error)
    else:
        _pool_init(rules)
        for task in tasks:
            index, found, error = _pool_analyze(task)
            results[index] = (found, error)
    findings: List[Finding] = []
    parse_errors: List[Dict[str, str]] = []
    for index in range(len(files)):
        found, error = results[index]
        findings.extend(found)
        if error is not None:
            parse_errors.append(error)
        if cache is not None and index in digests:
            cache.put(digests[index], found, error)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, parse_errors, len(files)


# -- shared AST helpers ----------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve ``a.b.c`` attribute chains to a dotted string (else None)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def walk_own_scope(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested function scopes.

    Nested defs/lambdas are separate coroutine candidates (the driver scans
    every function), so a blocking call inside one must not be attributed
    to the enclosing function.
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def is_generator(func: ast.AST) -> bool:
    """True when the function's own scope contains a yield."""
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in walk_own_scope(func))


__all__ = [
    "AnalysisCache", "Baseline", "FileContext", "Finding", "Rule",
    "all_rules", "analyze_paths", "analyze_source", "dotted_name",
    "is_generator", "iter_python_files", "register", "walk_own_scope",
]
