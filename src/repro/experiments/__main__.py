"""Command-line experiment runner.

Regenerate any of the paper's tables/figures (or ablations) directly::

    python -m repro.experiments list
    python -m repro.experiments fig5
    python -m repro.experiments table3
    python -m repro.experiments ablation-gtp
    python -m repro.experiments all
"""

from __future__ import annotations

import sys

from .ablation_backhaul import run_backhaul_ablation
from .ablation_double_spend import run_double_spend
from .ablation_fault_domains import run_fault_domain_ablation
from .ablation_gtp import run_gtp_ablation
from .ablation_headless import run_headless_ablation
from .ablation_idle_mode import run_idle_mode_ablation
from .ablation_overload import run_overload_ablation
from .ablation_state_sync import run_state_sync
from .calibration import run_calibration
from .cups import CupsConfig, run_cups
from .fig5_cpu_util import Fig5Config, run_fig5
from .fig6_attach_rate import Fig6Config, run_fig6
from .fig9_accessparks import run_fig9
from .scaling import run_scaling
from .tables import run_table2, run_table3

EXPERIMENTS = {
    "fig5": lambda: run_fig5(Fig5Config(steady_duration=60.0)),
    "fig6": lambda: run_fig6(Fig6Config(storm_duration=30.0)),
    "fig7": lambda: run_cups(CupsConfig(measure_duration=30.0)),
    "fig8": lambda: run_cups(CupsConfig(measure_duration=30.0)),
    "fig9": lambda: run_fig9(),
    "table2": run_table2,
    "table3": run_table3,
    "calibration": run_calibration,
    "scaling": lambda: run_scaling(agw_counts=(50, 200, 800, 2000, 5370)),
    "ablation-sync": lambda: run_state_sync(),
    "ablation-gtp": lambda: run_gtp_ablation(),
    "ablation-faults": lambda: run_fault_domain_ablation(),
    "ablation-headless": lambda: run_headless_ablation(),
    "ablation-quota": lambda: run_double_spend(),
    "ablation-overload": lambda: run_overload_ablation(),
    "ablation-backhaul": lambda: run_backhaul_ablation(),
    "ablation-idle": lambda: run_idle_mode_ablation(),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help", "list"):
        print(__doc__)
        print("available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0
    names = list(EXPERIMENTS) if argv[0] == "all" else argv
    for name in names:
        runner = EXPERIMENTS.get(name)
        if runner is None:
            print(f"unknown experiment {name!r}; try 'list'",
                  file=sys.stderr)
            return 2
        print(f"=== {name} " + "=" * max(1, 60 - len(name)))
        result = runner()
        render = getattr(result, "render", None)
        if render is not None:
            print(render())
        else:
            print(result)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
