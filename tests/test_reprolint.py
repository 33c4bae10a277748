"""reprolint: every rule proves a true positive on a known-bad fixture,
stays silent on the known-good twin, and the live src/ tree is clean
under the shipped baseline (the CI gate)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (AnalysisCache, Baseline, all_rules, analyze_paths,
                            analyze_source)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "reprolint_fixtures"


def fixture_findings(name):
    findings, parse_errors, _count = analyze_paths([str(FIXTURES / name)])
    assert parse_errors == []
    return findings


def marker_line(name, marker):
    """1-based line number of the first fixture line containing ``marker``."""
    source = (FIXTURES / name).read_text(encoding="utf-8")
    for lineno, line in enumerate(source.splitlines(), start=1):
        if marker in line:
            return lineno
    raise AssertionError(f"marker {marker!r} not found in {name}")


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# -- registry ---------------------------------------------------------------------


def test_registry_has_at_least_five_documented_rules():
    rules = all_rules()
    assert len(rules) >= 5
    names = [rule.name for rule in rules]
    codes = [rule.code for rule in rules]
    assert len(set(names)) == len(names)
    assert len(set(codes)) == len(codes)
    for rule in rules:
        assert rule.description
        assert rule.invariant
    assert {"checkpoint-completeness", "no-wallclock", "no-unseeded-random",
            "no-blocking-in-coroutine", "desired-state-sync",
            "broad-except-hygiene"} <= set(names)


def test_select_unknown_rule_raises():
    with pytest.raises(KeyError):
        all_rules(["no-such-rule"])


# -- checkpoint-completeness -----------------------------------------------------


def test_checkpoint_completeness_catches_ecm_bug_shape():
    findings = fixture_findings("ckpt_bad.py")
    hits = by_rule(findings, "checkpoint-completeness")
    line = marker_line("ckpt_bad.py", "ECM-BUG-MARKER")
    assert len(hits) == 2
    assert all(f.line == line for f in hits)
    assert all(f.code == "REPRO101" for f in hits)
    messages = " | ".join(f.message for f in hits)
    assert "never read in Sessiond.checkpoint()" in messages
    assert "never written in Sessiond.restore()" in messages
    assert all("'connected'" in f.message for f in hits)


def test_checkpoint_completeness_clean_on_complete_roundtrip():
    findings = fixture_findings("ckpt_good.py")
    assert by_rule(findings, "checkpoint-completeness") == []


# -- determinism -----------------------------------------------------------------


def test_no_wallclock_flags_time_and_datetime():
    findings = fixture_findings("wallclock_bad.py")
    hits = by_rule(findings, "no-wallclock")
    expected = {marker_line("wallclock_bad.py", f"WALLCLOCK-MARKER-{i}")
                for i in (1, 2, 3)}
    assert {f.line for f in hits} == expected
    assert len(hits) == 3


def test_no_unseeded_random_flags_import_and_calls():
    findings = fixture_findings("random_bad.py")
    hits = by_rule(findings, "no-unseeded-random")
    expected = {
        marker_line("random_bad.py", "RANDOM-MARKER-IMPORT"),
        marker_line("random_bad.py", "RANDOM-MARKER-CALL"),
        marker_line("random_bad.py", "RANDOM-MARKER-CHOICE"),
    }
    assert {f.line for f in hits} == expected


def test_no_unseeded_random_exempts_rng_module():
    source = "import random\n\nSTREAM = random.Random(7)\n"
    findings = analyze_source(source, path="src/repro/sim/rng.py")
    assert by_rule(findings, "no-unseeded-random") == []
    # The same content anywhere else is a violation.
    findings = analyze_source(source, path="src/repro/net/backhaul.py")
    assert by_rule(findings, "no-unseeded-random") != []


def test_determinism_good_fixture_is_clean():
    assert fixture_findings("determinism_good.py") == []


# -- no-blocking-in-coroutine ----------------------------------------------------


def test_kernel_owned_state_flags_clock_and_outcome_stores():
    findings = by_rule(fixture_findings("kernel_state_bad.py"),
                       "kernel-owned-state")
    expected = {marker_line("kernel_state_bad.py", marker)
                for marker in ("CLOCK-MARKER-1", "CLOCK-MARKER-2",
                               "OUTCOME-MARKER-1", "OUTCOME-MARKER-2",
                               "OUTCOME-MARKER-3", "OUTCOME-MARKER-4",
                               "OUTCOME-MARKER-5")}
    assert {f.line for f in findings} == expected
    assert len(findings) == len(expected)
    assert all(f.code == "REPRO203" for f in findings)


def test_kernel_owned_state_silent_on_reads_and_look_alikes():
    findings = fixture_findings("kernel_state_good.py")
    assert by_rule(findings, "kernel-owned-state") == []


def test_kernel_owned_state_exempts_the_kernel_itself():
    source = ("class Simulator:\n"
              "    def _run(self, when):\n"
              "        self.sim.now = when\n")
    findings = analyze_source(source, path="src/repro/sim/kernel.py")
    assert by_rule(findings, "kernel-owned-state") == []
    findings = analyze_source(source, path="src/repro/sim/cpu.py")
    assert by_rule(findings, "kernel-owned-state") != []


def test_blocking_calls_flagged_inside_coroutines_only():
    findings = fixture_findings("blocking_bad.py")
    hits = by_rule(findings, "no-blocking-in-coroutine")
    expected = {
        marker_line("blocking_bad.py", "BLOCKING-MARKER-SLEEP"),
        marker_line("blocking_bad.py", "BLOCKING-MARKER-OPEN"),
        marker_line("blocking_bad.py", "BLOCKING-MARKER-ASYNC-OPEN"),
    }
    assert {f.line for f in hits} == expected
    sleep_hit = [f for f in hits
                 if f.line == marker_line("blocking_bad.py",
                                          "BLOCKING-MARKER-SLEEP")][0]
    assert "time.sleep" in sleep_hit.message
    assert "poller" in sleep_hit.message


def test_plain_functions_may_do_io():
    findings = fixture_findings("blocking_good.py")
    assert by_rule(findings, "no-blocking-in-coroutine") == []


# -- desired-state-sync ----------------------------------------------------------


def test_crud_deltas_on_replicated_stores_flagged():
    findings = fixture_findings("statesync_bad.py")
    hits = by_rule(findings, "desired-state-sync")
    expected = {
        marker_line("statesync_bad.py", "STATESYNC-MARKER-UPSERT"),
        marker_line("statesync_bad.py", "STATESYNC-MARKER-DELETE"),
        marker_line("statesync_bad.py", "STATESYNC-MARKER-PUT"),
    }
    assert {f.line for f in hits} == expected


def test_desired_state_pushes_are_clean():
    findings = fixture_findings("statesync_good.py")
    assert by_rule(findings, "desired-state-sync") == []


def test_orchestrator_modules_are_exempt():
    source = "def write(store):\n    store.put('ns', 'k', 1)\n"
    findings = analyze_source(
        source, path="src/repro/core/orchestrator/config_store.py")
    assert by_rule(findings, "desired-state-sync") == []


# -- broad-except-hygiene --------------------------------------------------------


def test_unjustified_broad_excepts_flagged():
    findings = fixture_findings("excepts_bad.py")
    hits = by_rule(findings, "broad-except-hygiene")
    expected = {marker_line("excepts_bad.py", f"EXCEPT-MARKER-{i}") - 1
                for i in (1, 2, 3)}
    assert {f.line for f in hits} == expected
    assert any("bare 'except:'" in f.message for f in hits)


def test_justified_or_narrow_excepts_are_clean():
    findings = fixture_findings("excepts_good.py")
    assert by_rule(findings, "broad-except-hygiene") == []


# -- timer-leak (REPRO601) -------------------------------------------------------


def test_timer_leak_redetects_pr6_guard_bug_at_exact_line():
    """The acceptance gate: reverting the ue.py finally-revoke fix (copied
    into the fixture) re-trips REPRO601 at the schedule() line."""
    findings = fixture_findings("timers_bad.py")
    hits = by_rule(findings, "timer-leak")
    line = marker_line("timers_bad.py", "TIMER-MARKER-SR")
    sr_hits = [f for f in hits if f.line == line]
    assert len(sr_hits) == 1
    assert sr_hits[0].code == "REPRO601"
    assert "guard_timer" in sr_hits[0].message
    assert "may leak" in sr_hits[0].message


def test_timer_leak_flags_branch_rebind_discard_and_call_later():
    findings = fixture_findings("timers_bad.py")
    hits = by_rule(findings, "timer-leak")
    expected = {
        marker_line("timers_bad.py", "TIMER-MARKER-SR"),
        marker_line("timers_bad.py", "TIMER-MARKER-BRANCH"),
        marker_line("timers_bad.py", "TIMER-MARKER-REBIND"),
        marker_line("timers_bad.py", "TIMER-MARKER-DISCARD"),
        marker_line("timers_bad.py", "TIMER-MARKER-CALL-LATER"),
    }
    assert {f.line for f in hits} == expected
    assert len(hits) == 5
    messages = " | ".join(f.message for f in hits)
    assert "discarded" in messages            # bare-Expr schedule()
    assert "returns no handle" in messages    # handle-shaped call_later()


def test_timer_leak_silent_on_blessed_ownership_shapes():
    findings = fixture_findings("timers_good.py")
    assert by_rule(findings, "timer-leak") == []


def test_timer_leak_exempts_the_kernel_itself():
    source = ("class Simulator:\n"
              "    def _rearm(self):\n"
              "        h = self.sim.schedule(1.0, self._tick)\n")
    findings = analyze_source(source, path="src/repro/sim/kernel.py")
    assert by_rule(findings, "timer-leak") == []
    findings = analyze_source(source, path="src/repro/lte/enodeb.py")
    assert by_rule(findings, "timer-leak") != []


# -- yield-atomicity (REPRO602) --------------------------------------------------


def test_yield_atomicity_flags_stale_writebacks_at_exact_lines():
    findings = fixture_findings("atomicity_bad.py")
    hits = by_rule(findings, "yield-atomicity")
    expected = {
        marker_line("atomicity_bad.py", "ATOMICITY-MARKER-RMW"),
        marker_line("atomicity_bad.py", "ATOMICITY-MARKER-MERGE"),
        marker_line("atomicity_bad.py", "ATOMICITY-MARKER-AWAIT"),
    }
    assert {f.line for f in hits} == expected
    assert all(f.code == "REPRO602" for f in hits)
    rmw = [f for f in hits
           if f.line == marker_line("atomicity_bad.py",
                                    "ATOMICITY-MARKER-RMW")][0]
    assert "self.active_sessions" in rmw.message
    assert "'count'" in rmw.message


def test_yield_atomicity_silent_on_reread_guard_and_augassign():
    findings = fixture_findings("atomicity_good.py")
    assert by_rule(findings, "yield-atomicity") == []


# -- suppression layers ----------------------------------------------------------


def test_pragma_suppresses_specific_rule_and_all():
    assert fixture_findings("pragma_case.py") == []


def test_baseline_roundtrip(tmp_path):
    findings = fixture_findings("statesync_bad.py")
    assert findings
    baseline_path = tmp_path / "baseline.json"
    Baseline.write(str(baseline_path), findings)
    baseline = Baseline.load(str(baseline_path))
    assert all(baseline.suppresses(f) for f in findings)
    assert baseline.unused_entries() == []


def test_write_baseline_prunes_deleted_files_and_keeps_reasons(tmp_path,
                                                               monkeypatch):
    """Refreshing a baseline drops entries whose file is gone
    (deleted/renamed) and preserves hand-edited reasons for survivors."""
    monkeypatch.chdir(tmp_path)
    live = tmp_path / "live.py"
    live.write_text("import random\nrandom.random()\n")
    gone = tmp_path / "gone.py"
    gone.write_text("import random\nrandom.random()\n")
    baseline_path = tmp_path / "baseline.json"
    findings, errors, _count = analyze_paths([str(live), str(gone)])
    assert errors == []
    Baseline.write(str(baseline_path), findings)
    data = json.loads(baseline_path.read_text())
    paths = {entry["path"] for entry in data["suppressions"]}
    assert any(p.endswith("live.py") for p in paths)
    assert any(p.endswith("gone.py") for p in paths)
    # Hand-edit a justification, then delete one file and refresh.
    for entry in data["suppressions"]:
        if entry["path"].endswith("live.py"):
            entry["reason"] = "justified: intentional fixture entropy"
    baseline_path.write_text(json.dumps(data))
    gone.unlink()
    findings, _errors, _count = analyze_paths([str(live)])
    Baseline.write(str(baseline_path), findings)
    data = json.loads(baseline_path.read_text())
    paths = {entry["path"] for entry in data["suppressions"]}
    assert not any(p.endswith("gone.py") for p in paths)  # stale: pruned
    live_entries = [e for e in data["suppressions"]
                    if e["path"].endswith("live.py")]
    assert live_entries
    assert all(e["reason"] == "justified: intentional fixture entropy"
               for e in live_entries)


def test_write_baseline_carries_forward_other_rules_entries(tmp_path,
                                                            monkeypatch):
    """A --select'ed rewrite must not drop suppressions for rules that did
    not run (their files still exist)."""
    monkeypatch.chdir(tmp_path)
    live = tmp_path / "live.py"
    live.write_text("import random\nrandom.random()\n")
    baseline_path = tmp_path / "baseline.json"
    findings, _errors, _count = analyze_paths([str(live)])
    Baseline.write(str(baseline_path), findings)
    before = json.loads(baseline_path.read_text())["suppressions"]
    # Rewrite with zero findings (as a disjoint --select would produce).
    Baseline.write(str(baseline_path), [])
    after = json.loads(baseline_path.read_text())["suppressions"]
    assert after == before


def test_baseline_reports_unused_entries(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({
        "version": 1,
        "suppressions": [{"rule": "no-wallclock", "path": "nowhere.py",
                          "message": "never matches", "reason": "stale"}],
    }))
    baseline = Baseline.load(str(baseline_path))
    for finding in fixture_findings("statesync_bad.py"):
        assert not baseline.suppresses(finding)
    assert len(baseline.unused_entries()) == 1


# -- parallel driver and findings cache ------------------------------------------


def test_parallel_analysis_matches_serial():
    serial, serial_errors, serial_count = analyze_paths([str(FIXTURES)])
    parallel, parallel_errors, parallel_count = analyze_paths(
        [str(FIXTURES)], jobs=4)
    assert parallel == serial
    assert parallel_errors == serial_errors
    assert parallel_count == serial_count


def test_cache_skips_unchanged_files_and_returns_same_findings(tmp_path):
    cache_path = tmp_path / "cache.json"
    cache = AnalysisCache(str(cache_path))
    first, _errors, count = analyze_paths([str(FIXTURES)], cache=cache)
    assert cache.hits == 0 and cache.misses == count
    cache.save()
    warm = AnalysisCache(str(cache_path))
    second, _errors, _count = analyze_paths([str(FIXTURES)], cache=warm)
    assert warm.hits == count and warm.misses == 0
    assert second == first


def test_cache_rehomes_findings_onto_renamed_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    source = "import random\nrandom.random()\n"
    old = tmp_path / "old_name.py"
    old.write_text(source)
    cache = AnalysisCache(str(tmp_path / "cache.json"))
    first, _e, _c = analyze_paths([str(old)], cache=cache)
    assert first and all(f.path == "old_name.py" for f in first)
    old.unlink()
    new = tmp_path / "new_name.py"
    new.write_text(source)
    second, _e, _c = analyze_paths([str(new)], cache=cache)
    assert cache.hits == 1  # same content hash
    assert second and all(f.path == "new_name.py" for f in second)
    assert [f.message for f in second] == [f.message for f in first]


def test_cache_is_invalidated_by_rule_selection():
    cache = AnalysisCache()
    with_all, _e, _c = analyze_paths(
        [str(FIXTURES / "random_bad.py")], cache=cache)
    assert with_all
    subset = all_rules(["no-wallclock"])
    without, _e, _c = analyze_paths(
        [str(FIXTURES / "random_bad.py")], rules=subset, cache=cache)
    assert without == []  # different rule key: no stale cross-selection hit


# -- CLI -------------------------------------------------------------------------


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT))


def test_cli_json_report_and_exit_codes(tmp_path):
    report_path = tmp_path / "report.json"
    proc = run_cli(str(FIXTURES / "statesync_bad.py"), "--json",
                   "--json-output", str(report_path))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["tool"] == "reprolint"
    assert len(report["findings"]) == 3
    assert {f["rule"] for f in report["findings"]} == {"desired-state-sync"}
    # --json-output wrote the identical report for the CI artifact.
    assert json.loads(report_path.read_text()) == report


def test_cli_clean_tree_exits_zero():
    proc = run_cli(str(FIXTURES / "statesync_good.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_cli_select_limits_rules():
    proc = run_cli(str(FIXTURES / "random_bad.py"), "--select", "no-wallclock")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    for name in ("checkpoint-completeness", "desired-state-sync",
                 "broad-except-hygiene"):
        assert name in proc.stdout


def test_cli_unknown_rule_is_usage_error():
    proc = run_cli(str(FIXTURES / "random_bad.py"), "--select", "bogus")
    assert proc.returncode == 2


def test_cli_bare_invocation_on_src_is_clean():
    """The acceptance gate: `python -m repro.analysis src` exits 0 (the
    shipped baseline is auto-discovered from the repo root)."""
    proc = run_cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "baseline-suppressed" in proc.stdout


def test_cli_no_baseline_reveals_justified_findings():
    proc = run_cli("src", "--no-baseline")
    assert proc.returncode == 1
    assert "desired-state-sync" in proc.stdout


# -- the CI gate: live tree clean under the shipped baseline ----------------------


def test_live_src_tree_is_clean_under_shipped_baseline():
    findings, parse_errors, file_count = analyze_paths(
        [str(REPO_ROOT / "src")])
    assert parse_errors == []
    assert file_count > 100
    baseline = Baseline.load(str(REPO_ROOT / "reprolint-baseline.json"))
    leftovers = [f for f in findings if not baseline.suppresses(f)]
    assert leftovers == [], "\n".join(f.render() for f in leftovers)
    # Every shipped suppression still matches something: no stale entries.
    assert baseline.unused_entries() == []
