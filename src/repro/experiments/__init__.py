"""Experiments: one module per paper figure/table, plus ablations.

See DESIGN.md's per-experiment index for the mapping to the paper.
Import each runner from its own module (``from
repro.experiments.fig5_cpu_util import run_fig5``); ``python -m
repro.experiments`` dispatches to all of them.
"""
