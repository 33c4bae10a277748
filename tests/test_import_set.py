"""Cold start: importing what the e2e benchmark imports loads no module a
run of it never executes, and builds its record classes cheaply.

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
#: re-exported all of its modules.  The record module (``repro.record``)
#: is the 81st: every run builds its message classes with it.
MAX_MODULES = 81


def benchmark_imports():
    with open(WORKLOADS, encoding="utf-8") as f:
        tree = ast.parse(f.read(), WORKLOADS)
    return [ast.unparse(node) for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"]


def run_fresh(statements):
    """The JSON the statements print, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", "\n".join(statements)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def loaded_modules(statements):
    return run_fresh(statements + [
        "import json, sys",
        "print(json.dumps(sorted(m for m in sys.modules",
        "                        if m.split('.')[0] == 'repro')))",
    ])


def test_the_benchmark_imports_load_only_modules_a_run_uses():
    statements = benchmark_imports()
    assert len(statements) >= 10
    modules = loaded_modules(statements)
    cold = sorted(m for m in modules if m in COLD or (
        m.startswith("repro.experiments") and m not in EXPERIMENTS_USED))
    assert cold == []
    assert len(modules) <= MAX_MODULES, len(modules)


#: Counts every ``compile`` and ``exec`` call that builds a class: made
#: by ``dataclasses`` or by ``repro`` code (importlib compiles and runs
#: the modules themselves, and ``typing`` compiles forward references).
COUNT_GENERATED_CODE = """
import builtins, json, sys
generated = []
def counting(real):
    def call(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller == "dataclasses" or caller.split(".")[0] == "repro":
            generated.append(caller)
        return real(*args, **kwargs)
    return call
builtins.compile = counting(builtins.compile)
builtins.exec = counting(builtins.exec)
"""


def test_the_benchmark_imports_compile_at_most_one_method_per_record():
    """``dataclasses`` compiled and ran five or six methods per class from
    source text (570 ``exec`` calls for the 109 classes the benchmark
    loads); a record compiles its ``__init__`` and nothing else."""
    generated, records = run_fresh(
        COUNT_GENERATED_CODE.strip().splitlines() + benchmark_imports() + [
            "records = sum('__dataclass_fields__' in vars(obj)",
            "              for name, module in list(sys.modules.items())",
            "              if name.split('.')[0] == 'repro'",
            "              for obj in vars(module).values()",
            "              if isinstance(obj, type)",
            "              and obj.__module__ == name)",
            "print(json.dumps([generated, records]))",
        ])
    assert records >= 100
    assert len(generated) <= records, (len(generated), records)
