"""Experiments: one module per paper figure/table, plus ablations.

See DESIGN.md's per-experiment index for the mapping to the paper.
"""

from .ablation_backhaul import run_backhaul_ablation
from .ablation_double_spend import run_double_spend
from .ablation_overload import run_overload_ablation
from .ablation_fault_domains import run_fault_domain_ablation
from .ablation_gtp import run_gtp_ablation
from .ablation_idle_mode import run_idle_mode_ablation
from .ablation_headless import run_headless_ablation
from .ablation_state_sync import run_state_sync
from .calibration import run_calibration
from .common import format_table
from .cups import CupsConfig, run_cups, run_cups_point
from .fig5_cpu_util import Fig5Config, run_fig5
from .fig6_attach_rate import Fig6Config, run_fig6, run_fig6_point
from .fig9_accessparks import run_fig9
from .scaling import run_scaling, run_scaling_point
from .tables import run_table2, run_table3

__all__ = [
    "CupsConfig",
    "Fig5Config",
    "Fig6Config",
    "format_table",
    "run_backhaul_ablation",
    "run_calibration",
    "run_cups",
    "run_cups_point",
    "run_double_spend",
    "run_fault_domain_ablation",
    "run_fig5",
    "run_fig6",
    "run_fig6_point",
    "run_fig9",
    "run_gtp_ablation",
    "run_headless_ablation",
    "run_idle_mode_ablation",
    "run_overload_ablation",
    "run_scaling",
    "run_scaling_point",
    "run_state_sync",
    "run_table2",
    "run_table3",
]
