"""The measuring code, measured: layer folding, spans, speed reference.

A synthetic three-layer call graph with known call counts and busy loops
is compiled under file names inside ``src/repro/...`` (no file is
written), so the real layer table resolves it.
"""

import os

import layertrace
import speedref

N = 200

SOURCES = {
    "repro/core/sync/digest.py": """
def hash_leaf():
    total = 0
    for i in range(4000):
        total += i * i
    return total
""",
    "repro/net/rpc.py": """
def call(hash_leaf):
    total = 0
    for i in range(1000):
        total += i
    hash_leaf()
    hash_leaf()
    return len("a") + len("bb") + len(sorted((3, 1, 2))) + total
""",
    "repro/sim/kernel.py": """
def dispatch(n, call, hash_leaf):
    for _ in range(n):
        call(hash_leaf)
""",
}


def synthetic():
    """{function name: function}, each compiled as if it lived under src/."""
    functions = {}
    for relative, source in SOURCES.items():
        path = os.path.join(layertrace.SRC_DIR, relative)
        exec(compile(source, path, "exec"), functions)
    return functions


def folded_synthetic():
    fn = synthetic()
    wall, stats = layertrace.profile(
        lambda: fn["dispatch"](N, fn["call"], fn["hash_leaf"]), edges=True)
    return wall, stats, layertrace.fold(stats)


def test_counts_are_exact_and_builtins_go_to_the_calling_layer():
    _wall, stats, folded = folded_synthetic()
    layers = folded["layers"]
    assert layers["sim.kernel"]["calls"] == 1
    # call() itself, plus its three len() and one sorted(): builtins have
    # no layer of their own and are charged to the layer that called them.
    assert layers["net.rpc"]["calls"] == N * 5
    assert layers["core.sync.digest"]["calls"] == N * 2
    assert sum(row["calls"] for row in layers.values()) == \
        layertrace.total_calls(stats)
    # Nothing of the program leaks into the residual layer.
    assert layers[layertrace.PYTHON_LAYER]["calls"] <= 2


def test_call_count_does_not_depend_on_caller_edges():
    fn = synthetic()

    def run():
        fn["dispatch"](N, fn["call"], fn["hash_leaf"])

    with_edges = layertrace.total_calls(layertrace.profile(run, True)[1])
    without = layertrace.total_calls(layertrace.profile(run, False)[1])
    assert with_edges == without


def test_self_times_sum_to_the_traced_wall():
    wall, _stats, folded = folded_synthetic()
    layers = folded["layers"]
    covered = sum(row["self_s"] for row in layers.values())
    assert 0.95 <= covered / wall <= 1.0001
    # Busy loops of 4000*2, 1000 and ~0 iterations per dispatch step.
    assert layers["core.sync.digest"]["self_s"] > \
        layers["net.rpc"]["self_s"] > layers["sim.kernel"]["self_s"]


def test_boundary_records_name_the_entry_function_of_each_crossing():
    _wall, _stats, folded = folded_synthetic()
    crossings = {(b["from_layer"], b["to_layer"], b["entry"]): b["calls"]
                 for b in folded["boundaries"]}
    assert crossings[("sim.kernel", "net.rpc", "rpc.py:call")] == N
    assert crossings[("net.rpc", "core.sync.digest",
                      "digest.py:hash_leaf")] == N * 2
    assert all(b["cumulative_s"] >= 0 for b in folded["boundaries"])


def test_unknown_modules_fall_back_to_their_package():
    assert layertrace.layer_of_module("repro.sim.kernel") == "sim.kernel"
    assert layertrace.layer_of_module("repro.sim.newthing") == "sim.other"
    assert layertrace.layer_of_module("repro.core.agw.newsvc") == \
        "core.agw.magmad"
    assert layertrace.layer_of_module("repro.core.sync.newmod") == \
        "core.sync.reconcile"
    assert layertrace.layer_of_module("repro.core.orchestrator.newmod") == \
        "core.orchestrator.store"
    assert layertrace.layer_of_module("repro.wifi.eap") == "wifi"
    assert layertrace.layer_of_module("json.decoder") == \
        layertrace.PYTHON_LAYER


def test_every_runtime_module_of_the_program_has_a_layer():
    runtime = ("sim", "net", "lte", "fiveg", "wifi", "core", "dataplane",
               "workloads", "obs")
    root = os.path.join(layertrace.SRC_DIR, "repro")
    for package in runtime:
        for folder, _dirs, files in os.walk(os.path.join(root, package)):
            for name in files:
                if not name.endswith(".py") or name == "__init__.py":
                    continue            # package inits only re-export
                relative = os.path.relpath(os.path.join(folder, name),
                                           layertrace.SRC_DIR)
                module = relative[:-3].replace(os.sep, ".")
                layer = layertrace.layer_of_module(module)
                assert layer in layertrace.LAYERS
                assert layer != layertrace.PYTHON_LAYER, module


def test_spans_record_their_parent():
    log = layertrace.SpanLog()
    with log.span("timed"):
        with log.span("sim.run[1]"):
            pass
        with log.span("sim.run[2]"):
            pass
    assert [s["name"] for s in log.spans] == \
        ["timed", "sim.run[1]", "sim.run[2]"]
    assert [s["parent"] for s in log.spans] == [None, 0, 0]
    assert all(s["end"] >= s["start"] for s in log.spans)


def test_speed_reference_scales_to_nominal_speed():
    # Ten bursts that each took twice the nominal time: the box ran at half
    # speed, so the work left after removing the bursts counts half.
    burst_seconds = 10 * 2 * speedref.NOMINAL_BURST_SECONDS
    value = speedref.normalised(1.0, (0, 0.0), (10, burst_seconds))
    assert abs(value - (1.0 - burst_seconds) / 2) < 1e-12
    # Without a burst there is nothing to scale by.
    assert speedref.normalised(1.0, (3, 0.5), (3, 0.5)) == 1.0


def test_disabled_speed_reference_never_spins():
    ref = speedref.SpeedReference(enabled=False)
    ref.tick(force=True)
    assert ref.snapshot() == (0, 0.0)
    ref.enabled = True
    ref.tick(force=True)
    assert ref.bursts == 1 and ref.seconds > 0
