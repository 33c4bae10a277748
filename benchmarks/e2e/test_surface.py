"""Stable-surface guard: what the benchmark may touch of the program.

The benchmark outlives refactors it may not be edited for, so it is held
to public constructors and the public stats/monitor reads the README
lists.  This scans the benchmark's own files (tests excluded) and fails
on an import outside the allow-list, any underscore-prefixed attribute of
something other than ``self``, any name on ROADMAP item 3's deletion
ledger, or any use of the legacy ``benchmarks/bench_*.py`` harnesses.
"""

import ast
import glob
import os

HERE = os.path.dirname(os.path.abspath(__file__))

#: Public names the benchmark may import from ``repro``.  ``CellConfig``
#: and ``SYNC_LABELS`` are the only two beyond the issue's list: cells are
#: sized to the population so no procedure is refused for radio capacity,
#: and the sync namespaces are named by the program, not guessed.
ALLOWED_IMPORTS = {
    "Simulator", "RngRegistry", "Monitor", "Network", "backhaul",
    "AccessGateway", "AgwConfig", "VIRTUAL_8VCPU", "CheckpointStore",
    "SubscriberProfile", "Orchestrator", "Enodeb", "Ue", "Gnb", "Ue5g",
    "WifiAp", "UeFleet", "CohortSpec", "AgwFleetAdapter", "DigestMirror",
    "ReconcileClient", "Tracer", "FlightRecorder", "subscriber_keys",
    "make_imsi", "PolicyRule", "CellConfig", "SYNC_LABELS",
}

#: ROADMAP item 3's deletion ledger: nothing here may be leaned on.
DELETION_LEDGER = {
    "timer_wheel", "digest_sync", "config_delta", "shard_id_for",
    "fleet_session_count", "get_subscriber", "delete_policy",
    "set_ran_config", "node_is_up", "authenticate_secret", "release_ue",
    "context_count", "stop_accounting", "exemplars_between", "self_time",
}


def benchmark_files():
    return sorted(path for path in glob.glob(os.path.join(HERE, "*.py"))
                  if not os.path.basename(path).startswith("test_"))


def violations(source: str, filename: str = "<source>"):
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        where = f"{os.path.basename(filename)}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "repro":
                    found.append(f"{where}: bare 'import {alias.name}'")
                if top.startswith("bench_"):
                    found.append(f"{where}: legacy harness {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0].startswith("bench_"):
                found.append(f"{where}: legacy harness {module}")
            if module.split(".")[0] == "repro":
                for alias in node.names:
                    if alias.name not in ALLOWED_IMPORTS:
                        found.append(f"{where}: import of {alias.name} "
                                     f"from {module}")
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and \
                not node.attr.startswith("__")
            on_self = isinstance(node.value, ast.Name) and \
                node.value.id in ("self", "cls")
            if private and not on_self:
                found.append(f"{where}: private attribute .{node.attr}")
            if node.attr in DELETION_LEDGER:
                found.append(f"{where}: deletion-ledger name .{node.attr}")
        elif isinstance(node, ast.keyword) and node.arg in DELETION_LEDGER:
            found.append(f"{where}: deletion-ledger keyword {node.arg}=")
        elif isinstance(node, ast.Name) and node.id in DELETION_LEDGER:
            found.append(f"{where}: deletion-ledger name {node.id}")
    return found


def test_benchmark_touches_only_the_stable_surface():
    files = benchmark_files()
    assert {os.path.basename(path) for path in files} >= \
        {"run.py", "rep.py", "workloads.py", "layertrace.py", "metrics.py"}
    found = []
    for path in files:
        with open(path) as fh:
            found.extend(violations(fh.read(), path))
    assert not found, "\n".join(found)


def test_guard_catches_each_kind_of_breach():
    assert violations("from repro.core.orchestrator import ConfigStore")
    assert violations("import repro.sim")
    assert violations("from bench_fleet import fleet_leg")
    assert violations("agw.sessiond._sessions.clear()")
    assert violations("Simulator(timer_wheel=False)")
    assert violations("adapter.fleet_session_count()")
    assert not violations("from repro.sim import Simulator\n"
                          "class A:\n"
                          "    def f(self):\n"
                          "        return self._x.stats['spans']\n")
