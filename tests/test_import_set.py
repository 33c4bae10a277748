"""Cold start: importing what the e2e benchmark imports loads no module a
run of it never executes.

Every benchmark rep, CLI run and example starts a fresh interpreter, so
each module a package ``__init__`` re-exports is compiled on every start
whether the run uses it or not.  The rule is that an ``__init__``
re-exports only what every importer of the package loads anyway; other
callers import from the defining module.  This imports exactly the
``repro`` names ``benchmarks/e2e/workloads.py`` imports, in a fresh
interpreter with bytecode writing off (a cold start), and checks the
modules it leaves loaded.
"""

import ast
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = os.path.join(ROOT, "benchmarks", "e2e", "workloads.py")

#: Modules no e2e workload executes a line of.
COLD = {
    "repro.baseline", "repro.baseline.crud_sync", "repro.baseline.epc",
    "repro.costmodel", "repro.costmodel.items", "repro.costmodel.site",
    "repro.workloads.attach_storm", "repro.workloads.diurnal",
    "repro.workloads.iot", "repro.workloads.traffic",
    "repro.obs.analysis", "repro.obs.export", "repro.obs.profiler",
    "repro.sim.sansim", "repro.core.agw.failover", "repro.net.transport",
    "repro.lte.gtp", "repro.wifi.captive_portal",
    "repro.core.federation.gtp_aggregator",
    "repro.core.federation.mno_core", "repro.core.policy.ocs",
}
#: The experiments package's modules a workload may load.
EXPERIMENTS_USED = {"repro.experiments", "repro.experiments.common"}
#: ``repro`` modules that import may load; 116 when every package
#: re-exported all of its modules.
MAX_MODULES = 80


def benchmark_imports():
    with open(WORKLOADS, encoding="utf-8") as f:
        tree = ast.parse(f.read(), WORKLOADS)
    return [ast.unparse(node) for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"]


def loaded_modules(statements):
    script = "\n".join(statements + [
        "import json, sys",
        "print(json.dumps(sorted(m for m in sys.modules",
        "                        if m.split('.')[0] == 'repro')))",
    ])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_the_benchmark_imports_load_only_modules_a_run_uses():
    statements = benchmark_imports()
    assert len(statements) >= 10
    modules = loaded_modules(statements)
    cold = sorted(m for m in modules if m in COLD or (
        m.startswith("repro.experiments") and m not in EXPERIMENTS_USED))
    assert cold == []
    assert len(modules) <= MAX_MODULES, len(modules)
