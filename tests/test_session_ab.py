"""Smoke test of ``benchmarks/session_ab.py``: one tree against itself,
two rounds.  It times nothing it asserts; it checks the tool runs."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_session_ab_compares_a_tree_with_itself():
    src = os.path.join(ROOT, "src")
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "session_ab.py"),
         src, src, "--rounds", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("session lifecycle")
    assert "2 interleaved rounds" in lines[0]
    assert lines[-1].strip().startswith("change/parent ratio: median")
