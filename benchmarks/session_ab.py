"""A/B wall time of one session's rule programming, two source trees in
one interpreter.

Usage::

    python benchmarks/session_ab.py PARENT_SRC CHANGE_SRC [--rounds N]

Each ``*_SRC`` is a ``src`` directory holding the ``repro`` package.  Both
trees are imported into this one process, one after the other, and each
programs its own AGW loaded with ``LOADED_SESSIONS`` sessions.  A round
times ``LIFECYCLES`` session lifecycles on each - install, first tunnel,
handover re-point, removal - in alternating order, and yields one
change/parent ratio.  The median ratio and its quartiles are printed.

Why in one process: identical work can run twice as fast in one process
as in another on a shared machine, so two separate runs cannot resolve a
20% change; interleaved rounds in one process share whatever the machine
does.  And it times, rather than counts calls: a change can execute fewer
calls and still take longer.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
import time
from typing import Callable, List

LOADED_SESSIONS = 300
LIFECYCLES = 300
DEFAULT_ROUNDS = 40


def load_tree(src: str) -> Callable[[], object]:
    """Import the ``repro`` package under ``src``; return a factory of
    loaded Pipelined instances built from that tree's classes."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        agw = importlib.import_module("repro.core.agw")
        net = importlib.import_module("repro.net")
        sim_module = importlib.import_module("repro.sim")
    finally:
        sys.path.remove(src)

    def loaded():
        sim = sim_module.Simulator()
        pipelined = agw.Pipelined(agw.AgwContext(sim, net.Network(sim),
                                                 "agw-ab"))
        for i in range(LOADED_SESSIONS):
            imsi = f"imsi{i:05d}"
            pipelined.install_session(imsi, f"10.128.{i // 250}.{i % 250 + 1}",
                                      0x1000 + i, 10.0)
            pipelined.set_enb_tunnel(imsi, 0x9000 + i, "enb-a")
        return pipelined

    return loaded


def lifecycles(pipelined) -> float:
    """Seconds for ``LIFECYCLES`` session lifecycles."""
    install = pipelined.install_session
    tunnel = pipelined.set_enb_tunnel
    remove = pipelined.remove_session
    gc.collect()
    start = time.perf_counter()
    for k in range(LIFECYCLES):
        imsi = f"ab{k}"
        install(imsi, "10.200.0.1", 0x5000 + k, 10.0)
        tunnel(imsi, 0x6000 + k, "enb-a")
        tunnel(imsi, 0x7000 + k, "enb-b")
        remove(imsi)
    return time.perf_counter() - start


def compare(parent_src: str, change_src: str, rounds: int) -> List[float]:
    """Per-round change/parent ratios; prints the summary."""
    parent = load_tree(parent_src)()
    change = load_tree(change_src)()
    lifecycles(parent)          # warm-up: first-use caches, branch history
    lifecycles(change)
    ratios, best = [], {"parent": float("inf"), "change": float("inf")}
    for r in range(rounds):
        if r % 2:
            change_s, parent_s = lifecycles(change), lifecycles(parent)
        else:
            parent_s, change_s = lifecycles(parent), lifecycles(change)
        ratios.append(change_s / parent_s)
        best["parent"] = min(best["parent"], parent_s)
        best["change"] = min(best["change"], change_s)
    print(f"session lifecycle (install, first tunnel, handover, removal) on "
          f"an AGW holding {LOADED_SESSIONS} sessions: {rounds} interleaved "
          f"rounds of {LIFECYCLES} lifecycles")
    for side, src in (("parent", parent_src), ("change", change_src)):
        print(f"  {side}: best round {best[side] / LIFECYCLES * 1e6:.1f} us "
              f"per lifecycle  ({src})")
    median = statistics.median(ratios)
    if len(ratios) >= 2:
        low, _, high = statistics.quantiles(ratios, n=4, method="inclusive")
    else:
        low = high = median
    print(f"  change/parent ratio: median {median:.3f} "
          f"(quartiles {low:.3f}-{high:.3f})")
    return ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    compare(args.parent_src, args.change_src, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
