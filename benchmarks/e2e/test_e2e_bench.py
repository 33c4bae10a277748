"""The workloads and the command, at ``--size smoke``.

Run with ``python -m pytest benchmarks/e2e -q`` (outside tier-1's
``tests/``).
"""

import json
import os
import re
import subprocess
import sys

import pytest

import layertrace
import metrics
import rep
import run

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "..", "..", "BENCHMARK.json")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def smoke_reps():
    """{workload: rep record} for seed 1, untraced."""
    return {workload: rep.run_rep(workload, 1, "smoke", "plain")
            for workload in run.WORKLOAD_NAMES}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_same_digest_other_seed_other_digest(workload, smoke_reps):
    first = smoke_reps[workload]
    assert all(first["checks"].values()), first["checks"]
    assert first["attempted"] >= 1
    again = rep.run_rep(workload, 1, "smoke", "plain")
    assert again["sim_digest"] == first["sim_digest"]
    exact = [m.name for m in metrics.PER_LAYER
             if m.unit in run.EXACT_UNITS and m.name in first["layer_metrics"]]
    assert [again["layer_metrics"][name] for name in exact] == \
        [first["layer_metrics"][name] for name in exact]
    other = rep.run_rep(workload, 2, "smoke", "plain")
    assert other["sim_digest"] != first["sim_digest"]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_profile_hook_does_not_perturb_the_simulation(workload, smoke_reps):
    counted = rep.run_rep(workload, 1, "smoke", "count")
    traced = rep.run_rep(workload, 1, "smoke", "trace")
    assert counted["sim_digest"] == traced["sim_digest"] == \
        smoke_reps[workload]["sim_digest"]
    assert counted["host_calls"] == traced["host_calls"] == \
        sum(row["calls"] for row in traced["layers"].values())
    values = metrics.profile_metrics(traced["layers"], traced["raw_wall_s"],
                                     smoke_reps[workload]["raw_wall_s"])
    assert values["bench.trace_coverage"] >= metrics.MIN_TRACE_COVERAGE
    assert set(traced["layers"]) <= set(layertrace.LAYERS)
    with open(traced["trace_file"]) as fh:
        dump = json.load(fh)
    assert dump["sim_digest"] == traced["sim_digest"]
    assert {span["name"] for span in dump["spans"]} >= {"setup", "timed"}
    assert dump["boundaries"]


@pytest.mark.parametrize("workload",
                         ["sync_checkin_storm", "sync_publish_churn"])
def test_sync_workloads_bypass_the_kernel(workload, smoke_reps):
    values = smoke_reps[workload]["layer_metrics"]
    assert values["sim.kernel.events"] == 0
    assert values["sim.cpu.util_samples"] == 0
    assert values["core.orchestrator.statesync.checkins"] > 0


def test_failed_ops_are_zero_at_smoke_size(smoke_reps):
    for workload, record in smoke_reps.items():
        assert record["failed"] == 0, workload


def test_reps_that_disagree_fail_the_run():
    with pytest.raises(run.BenchFailure):
        run.same_digest("w", [{"sim_digest": "a"}, {"sim_digest": "b"}])
    assert run.same_digest("w", [{"sim_digest": "a"}] * 2) == "a"


def test_manifest_lists_exactly_the_catalogue():
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert manifest["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in manifest["workloads"]] == \
        list(run.WORKLOAD_NAMES)
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in metrics.END_TO_END]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    assert len(manifest["end_to_end"]) <= 16
    assert len(manifest["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in manifest[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in manifest[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in manifest["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])


@pytest.mark.parametrize("trace, catalogue", [(0, metrics.END_TO_END),
                                              (1, metrics.PER_LAYER)])
def test_command_prints_the_contracted_last_line(trace, catalogue):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "sync_publish_churn", "--seed", "3", "--seconds", "1", "--size",
         "smoke", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in catalogue]
    for metric in catalogue:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert isinstance(result["metrics"][metric.name]["value"],
                          (int, float))
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
