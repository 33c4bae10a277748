"""The traced pass: plain spans plus a layer-attributed host profile.

Two instruments, both owned by the benchmark (nothing under ``src/`` is
touched or hooked):

- :class:`SpanLog` — a plain ``(name, start, end, parent)`` span around
  every call the benchmark itself makes (set-up, the timed section, each
  ``sim.run`` slice, each check-in round, each publish burst).  Cheap
  enough to stay on in untraced reps, so traced and untraced runs are
  sliced identically.
- :func:`profile` + :func:`fold` — ``cProfile`` (a C-level hook, no
  source changes) around the timed section only, folded by **one** table,
  :data:`LAYER_PREFIXES` (module-path prefix -> layer).  A function's
  self time and calls go to its module's layer; a builtin or stdlib
  function has no layer of its own, so each of its caller edges is
  charged to the layer of *that caller*; what stdlib code calls from
  stdlib code lands in ``python``.  Every caller->callee edge that
  crosses two layers is a *boundary record* — the calls into a layer's
  functions, timed from outside, robust to renames inside a module.

Self times partition the profiled interval (``cProfile`` charges every
instant between entering and leaving the profiled call to exactly one
function), so ``sum(self_s) / traced wall`` is the attribution coverage
the benchmark gates at >= 0.95.
"""

from __future__ import annotations

import cProfile
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.normpath(os.path.join(BENCH_DIR, "..", "..", "src"))

#: Residual layer: stdlib/builtin work with no ``repro`` or benchmark caller.
PYTHON_LAYER = "python"
#: The benchmark's own driver code (everything under this directory).
BENCH_LAYER = "bench"

#: Module-path prefix -> layer.  The longest matching prefix wins, so a
#: module nobody listed falls back to its package's catch-all row.
LAYER_PREFIXES: Dict[str, str] = {
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.cpu": "sim.cpu",
    "repro.sim.fairshare": "sim.cpu",
    "repro.sim.resources": "sim.cpu",
    "repro.sim.monitor": "sim.monitor",
    "repro.sim": "sim.other",
    "repro.net.rpc": "net.rpc",
    "repro.net": "net.simnet",
    "repro.lte": "lte",
    "repro.fiveg": "fiveg",
    "repro.wifi": "wifi",
    "repro.core.agw.s1ap_frontend": "core.agw.frontends",
    "repro.core.agw.ngap_frontend": "core.agw.frontends",
    "repro.core.agw.radius_frontend": "core.agw.frontends",
    "repro.core.agw.mme": "core.agw.mme",
    "repro.core.agw.sessiond": "core.agw.sessiond",
    "repro.core.agw.mobilityd": "core.agw.sessiond",
    "repro.core.agw.subscriberdb": "core.agw.sessiond",
    "repro.core.agw.policydb": "core.agw.sessiond",
    "repro.core.agw.directoryd": "core.agw.sessiond",
    "repro.core.agw.enodebd": "core.agw.sessiond",
    "repro.core.policy": "core.agw.sessiond",
    "repro.core.agw.pipelined": "core.agw.pipelined",
    "repro.core.agw": "core.agw.magmad",
    "repro.dataplane": "dataplane",
    "repro.core.orchestrator.statesync": "core.orchestrator.statesync",
    "repro.core.orchestrator.metricsd": "core.orchestrator.metricsd",
    "repro.core.orchestrator.alerting": "core.orchestrator.metricsd",
    "repro.core.orchestrator": "core.orchestrator.store",
    "repro.core.sync.digest": "core.sync.digest",
    "repro.core.sync": "core.sync.reconcile",
    "repro.core.federation": "core.federation",
    "repro.workloads": "workloads",
    "repro.obs": "obs",
    # The subscriber-key helper the benchmark borrows from the experiment
    # scaffolding is driver code, not a layer of the system under test.
    "repro.experiments": BENCH_LAYER,
}

#: Every layer a metric is reported for, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    list(LAYER_PREFIXES.values()) + [PYTHON_LAYER]))


def layer_of_module(module: str) -> str:
    """Layer of a dotted module path, by longest matching prefix."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = LAYER_PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return PYTHON_LAYER


def layer_of_code(code: Any) -> Optional[str]:
    """Layer owning a profiled function, or None when it has none of its
    own (a builtin, or Python code outside ``src/`` and this directory)."""
    if isinstance(code, str):       # cProfile names builtins by a string
        return None
    path = os.path.abspath(code.co_filename)
    if path.startswith(BENCH_DIR + os.sep):
        return BENCH_LAYER
    if path.startswith(SRC_DIR + os.sep):
        module = path[len(SRC_DIR) + 1:-len(".py")].replace(os.sep, ".")
        if module.endswith(".__init__"):
            module = module[:-len(".__init__")]
        return layer_of_module(module)
    return None


def function_name(code: Any) -> str:
    if isinstance(code, str):
        return code
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


class SpanLog:
    """In-memory ``(name, start, end, parent)`` spans of the driver's calls."""

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()


def profile(fn: Callable[[], Any], edges: bool) -> Tuple[float, list]:
    """Run ``fn()`` under the C profile hook; returns (wall, raw stats).

    ``edges=False`` skips per-caller bookkeeping: enough for the exact
    total call count, at roughly three quarters of the overhead.
    """
    profiler = cProfile.Profile(subcalls=edges, builtins=True)
    start = time.perf_counter()
    profiler.runcall(fn)
    wall = time.perf_counter() - start
    return wall, profiler.getstats()


def total_calls(stats: list) -> int:
    """Python + C function calls executed under the hook (exact)."""
    return sum(entry.callcount for entry in stats)


def fold(stats: list,
         layer_of: Callable[[Any], Optional[str]] = layer_of_code
         ) -> Dict[str, Any]:
    """Fold raw ``cProfile`` stats (taken with ``edges=True``) by layer.

    Returns ``{"layers": {layer: {"self_s", "calls"}}, "boundaries":
    [...], "unmapped": [...]}``; the calls of all layers sum to
    :func:`total_calls` and the self times to the profiled interval.
    """
    layers: Dict[str, Dict[str, float]] = {}
    boundaries: Dict[Tuple[str, str, str], List[float]] = {}
    unmapped = set()
    owners: Dict[Any, Optional[str]] = {}

    def owner(code: Any) -> Optional[str]:
        if code not in owners:
            owners[code] = layer_of(code)
        return owners[code]

    def charge(layer: str, self_s: float, calls: int) -> None:
        row = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += self_s
        row["calls"] += calls

    for entry in stats:
        caller_layer = owner(entry.code)
        # A function with no layer of its own starts in the residual layer;
        # each edge from a caller that has one then moves that caller's
        # share of it over.  What remains is stdlib work called from stdlib
        # code, the profiled root and callbacks entered from C.
        charge(caller_layer or PYTHON_LAYER, entry.inlinetime,
               entry.callcount)
        if caller_layer is None and not isinstance(entry.code, str):
            unmapped.add(entry.code.co_filename)
        for edge in entry.calls or ():
            callee_layer = owner(edge.code)
            if callee_layer is None:
                if caller_layer is not None:
                    charge(caller_layer, edge.inlinetime, edge.callcount)
                    charge(PYTHON_LAYER, -edge.inlinetime, -edge.callcount)
            elif caller_layer is not None and callee_layer != caller_layer:
                key = (caller_layer, callee_layer, function_name(edge.code))
                record = boundaries.setdefault(key, [0, 0.0])
                record[0] += edge.callcount
                record[1] += edge.totaltime
    return {
        "layers": layers,
        "boundaries": [
            {"from_layer": key[0], "to_layer": key[1], "entry": key[2],
             "calls": record[0], "cumulative_s": record[1]}
            for key, record in sorted(boundaries.items(),
                                      key=lambda kv: -kv[1][1])],
        "unmapped": sorted(unmapped),
    }
